"""Hare permission prevalence across factory images (Section IV-B).

The paper's measurement has two steps:

1. from 10 sample Samsung images, extract the apps that *use*
   permissions they themselves fail to define (178 in the paper) —
   :func:`find_hare_apps`,
2. search the permissions those apps use across 1,181 other images,
   counting the unique (permission, image) pairs where **no app on the
   image defines the permission** — each such pair is a vulnerable
   case: a GIA attacker can install the platform-signed hare-creating
   app there and define the permission itself (27,763 cases,
   23.5 per image, in the paper).

Step 2 runs per image inside the ``images`` corpus of
:mod:`repro.analysis.pipeline`; read its totals with
``hare_counts(study_stats("images"))`` (both in that module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.analysis.factory_images import Fleet


@dataclass(frozen=True)
class HareApp:
    """An app using a permission nothing on its sample image defines."""

    package: str
    permission: str


def find_hare_apps(fleet: Fleet) -> List[HareApp]:
    """Step 1: hare-using apps on the sample images."""
    by_id = {image.image_id: image for image in fleet.images}
    found: List[HareApp] = []
    seen: Set[Tuple[str, str]] = set()
    for image_id in fleet.sample_image_ids:
        for app in by_id[image_id].apps:
            for permission in app.uses_permissions:
                if permission in app.defines_permissions:
                    continue
                key = (app.package, permission)
                if key in seen:
                    continue
                # "these apps can still be secure if the permissions are
                # defined by authorized parties on the same device" —
                # only the *usage* is extracted here; per-image
                # definedness is what step 2 checks.
                seen.add(key)
                found.append(HareApp(package=app.package, permission=permission))
    return found

