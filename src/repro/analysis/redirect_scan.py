"""Hardcoded Play-redirect extraction (Table IV, Section IV-A).

The paper identified apps that redirect users to Google Play by
inspecting smali for the fixed URL
(``http://play.google.com/store/apps/details?id=``) or the schemes
(``market://details?id=``, ``https://market.android.com/details?id=``).
:func:`redirect_targets` runs the same scan over an app's parsed
*code* — counting string constants, not trusting the generator's
metadata.  :func:`repro.analysis.pipeline.analyze_app` calls it once
per Play app and the pipeline folds the Table IV buckets.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.corpus import MARKET_SCHEME, MARKET_URL, PLAY_URL
from repro.analysis.smali import SmaliProgram

REDIRECT_PREFIXES = (PLAY_URL, MARKET_SCHEME, MARKET_URL)


def redirect_targets(program: SmaliProgram) -> Tuple[str, ...]:
    """The package ids of every hardcoded redirect in ``program``."""
    targets = []
    for value in program.string_list():
        # One tuple-argument startswith rejects non-redirect strings in
        # a single C call; only matches pay the per-prefix loop.
        if value.startswith(REDIRECT_PREFIXES):
            for prefix in REDIRECT_PREFIXES:
                if value.startswith(prefix):
                    targets.append(value[len(prefix):])
                    break
    return tuple(targets)
