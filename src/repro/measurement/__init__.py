"""Rendering of the Section IV measurement tables."""
