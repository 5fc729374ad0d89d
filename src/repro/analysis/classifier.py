"""The installer classifier — the paper's "simple yet effective tool".

Flowdroid-style whole-app taint analysis failed on real installers
(Section IV-A), so the paper keys on one robust invariant: **installing
from internal storage requires making the staged APK global-readable**.
The tool therefore

1. finds apps containing the installation API marker string
   (``application/vnd.android.package-archive``),
2. on those, looks for global-readable setter calls —
   ``openFileOutput(..., MODE_WORLD_READABLE)``, ``setReadable()``,
   ``chmod``/``exec``, ``setPosixFilePermissions`` — and *confirms the
   arguments through def-use chains*,
3. classifies:

   - **potentially vulnerable**: installation API + operates on /sdcard
     + holds WRITE_EXTERNAL_STORAGE + never sets the APK
     global-readable,
   - **potentially secure**: installation API + no /sdcard use + a
     confirmed global-readable setter,
   - **unknown**: every other installer.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.corpus import (
    CorpusApp,
    GroundTruth,
    INSTALL_MARKER,
    WRITE_EXTERNAL,
)
from repro.analysis.smali import Instruction, SmaliMethod, SmaliProgram, parse_program
from repro.sim.rand import DeterministicRandom

MODE_WORLD_READABLE = 0x1

_CHMOD_RE = re.compile(r"chmod\s+([0-7]{3,4})\s+\S+")
_POSIX_PERM_RE = re.compile(r"^[rwx-]{9}$")

#: Version fingerprint per evidence detector.  Bump a detector's number
#: whenever its logic (or a constant it keys on) changes; the analysis
#: cache stores the versions each app's verdict actually consulted, so
#: a bump only invalidates apps whose code exercised that detector.
DETECTOR_VERSIONS: Dict[str, int] = {
    "marker": 1,
    "sdcard": 1,
    "openFileOutput": 1,
    "setReadable": 1,
    "chmod": 1,
    "posix": 1,
}


class Category(enum.Enum):
    """Classifier verdicts (the paper's three buckets)."""

    NOT_AN_INSTALLER = "not-an-installer"
    POTENTIALLY_VULNERABLE = "potentially-vulnerable"
    POTENTIALLY_SECURE = "potentially-secure"
    UNKNOWN = "unknown"


@dataclass
class Classification:
    """One app's verdict with the evidence that produced it."""

    package: str
    category: Category
    has_install_api: bool = False
    uses_sdcard: bool = False
    sets_world_readable: bool = False
    unresolved_setter: bool = False
    evidence: List[str] = field(default_factory=list)
    detectors: List[str] = field(default_factory=list)  # consulted, sorted
    instructions: int = 0        # parsed instruction count (cost proxy)
    unparsed_lines: int = 0      # lenient-mode skips, kept as evidence


@dataclass
class CorpusClassification:
    """Aggregate results over a corpus."""

    results: List[Classification] = field(default_factory=list)

    def count(self, category: Category) -> int:
        """Number of apps in ``category``."""
        return sum(1 for result in self.results if result.category is category)

    @property
    def installers(self) -> int:
        """Apps containing installation API calls."""
        return sum(1 for result in self.results if result.has_install_api)


class InstallerClassifier:
    """The static-analysis tool."""

    def classify(self, app: CorpusApp,
                 program: Optional[SmaliProgram] = None) -> Classification:
        """Classify one app from its code and manifest.

        Parses leniently: a legal-but-unsupported smali form is recorded
        as evidence instead of aborting the app (and, at fleet scale,
        its whole shard).  Callers that already parsed the app (the
        sharded pipeline runs several passes over one parse) may pass
        the ``program`` in.
        """
        if program is None:
            program = parse_program(app.smali_text, lenient=True)
        result = Classification(package=app.package,
                                category=Category.NOT_AN_INSTALLER)
        result.instructions = program.instruction_count
        result.unparsed_lines = len(program.unparsed)
        for line_no, line in program.unparsed:
            result.evidence.append(f"unparsed line {line_no}: {line!r}")
        result.detectors.append("marker")
        result.has_install_api = program.contains_string(INSTALL_MARKER)
        if not result.has_install_api:
            return result
        result.detectors.append("sdcard")
        result.uses_sdcard = self._uses_sdcard(program)
        result.sets_world_readable, result.unresolved_setter = (
            self._world_readable_analysis(program, result.evidence,
                                          result.detectors)
        )
        result.detectors = sorted(set(result.detectors))
        if (
            result.uses_sdcard
            and not result.sets_world_readable
            and not result.unresolved_setter
            and app.has_permission(WRITE_EXTERNAL)
        ):
            result.category = Category.POTENTIALLY_VULNERABLE
        elif (
            not result.uses_sdcard
            and result.sets_world_readable
            and not result.unresolved_setter
        ):
            result.category = Category.POTENTIALLY_SECURE
        else:
            result.category = Category.UNKNOWN
        return result

    def classify_corpus(self, apps: Iterable[CorpusApp]) -> CorpusClassification:
        """Classify every app; order preserved."""
        outcome = CorpusClassification()
        for app in apps:
            outcome.results.append(self.classify(app))
        return outcome

    def validate_against_truth(self, apps: List[CorpusApp],
                               results: CorpusClassification,
                               sample: int = 20,
                               seed: int = 7) -> Dict[str, float]:
        """The paper's manual-validation step, mechanized.

        Draws a seeded random ``sample`` per verdict bucket (the paper's
        manual validation sampled randomly; slicing the head of the list
        would be order-biased) and checks the planted ground truth,
        returning per-bucket precision — the paper found 1.0 for both
        vulnerable and secure.  Empty buckets are omitted: no sample is
        no evidence, not precision 1.0.
        """
        by_bucket: Dict[Category, List[Tuple[CorpusApp, Classification]]] = {}
        for app, result in zip(apps, results.results):
            by_bucket.setdefault(result.category, []).append((app, result))
        rng = DeterministicRandom(seed)
        precision: Dict[str, float] = {}
        for category, expected_truths in (
            (Category.POTENTIALLY_VULNERABLE, {GroundTruth.VULNERABLE}),
            (Category.POTENTIALLY_SECURE, {GroundTruth.SECURE}),
        ):
            population = by_bucket.get(category, [])
            if not population:
                continue  # nothing to validate -> no precision claim
            bucket_rng = rng.fork(f"validate-{category.value}")
            bucket = bucket_rng.sample(population,
                                       min(sample, len(population)))
            correct = sum(
                1 for app, _result in bucket if app.truth in expected_truths
            )
            precision[category.value] = correct / len(bucket)
        return precision

    # -- evidence extraction --------------------------------------------------------

    def _uses_sdcard(self, program: SmaliProgram) -> bool:
        for value in program.all_strings():
            if value.startswith("/sdcard") or "/sdcard/" in value:
                return True
        for method in program.all_methods():
            for invoke in method.invokes():
                if "getExternalStorageDirectory" in invoke.method_sig:
                    return True
        return False

    def _world_readable_analysis(
            self, program: SmaliProgram, evidence: List[str],
            detectors: Optional[List[str]] = None) -> Tuple[bool, bool]:
        """Returns (confirmed_world_readable, unresolved_setter_present)."""
        confirmed = False
        unresolved = False
        if detectors is None:
            detectors = []
        for method in program.all_methods():
            for invoke in method.invokes():
                name = invoke.invoked_name
                if name == "openFileOutput":
                    detectors.append("openFileOutput")
                    verdict = self._check_open_file_output(method, invoke)
                elif name == "setReadable":
                    detectors.append("setReadable")
                    verdict = self._check_set_readable(method, invoke)
                elif name == "exec":
                    detectors.append("chmod")
                    verdict = self._check_exec_chmod(method, invoke)
                elif name == "setPosixFilePermissions":
                    detectors.append("posix")
                    verdict = self._check_posix_permissions(method, invoke)
                else:
                    continue
                if verdict is None:
                    unresolved = True
                    evidence.append(
                        f"{name} at line {invoke.line_no}: argument unresolved"
                    )
                elif verdict:
                    confirmed = True
                    evidence.append(
                        f"{name} at line {invoke.line_no}: world-readable confirmed"
                    )
        return confirmed, unresolved

    def _check_open_file_output(self, method: SmaliMethod,
                                invoke: Instruction) -> Optional[bool]:
        # registers: {this, name, mode}
        mode = method.resolve_argument(invoke, 2)
        if not isinstance(mode, int):
            return None
        return bool(mode & MODE_WORLD_READABLE)

    def _check_set_readable(self, method: SmaliMethod,
                            invoke: Instruction) -> Optional[bool]:
        # registers: {file, readable, ownerOnly}
        readable = method.resolve_argument(invoke, 1)
        owner_only = method.resolve_argument(invoke, 2)
        if not isinstance(readable, int) or not isinstance(owner_only, int):
            return None
        return bool(readable) and not owner_only

    def _check_exec_chmod(self, method: SmaliMethod,
                          invoke: Instruction) -> Optional[bool]:
        # registers: {runtime, command}
        command = method.resolve_argument(invoke, 1)
        if not isinstance(command, str):
            return None
        match = _CHMOD_RE.search(command)
        if match is None:
            return False  # an exec of something other than chmod
        other_digit = int(match.group(1)[-1], 8)
        return bool(other_digit & 0o4)

    def _check_posix_permissions(self, method: SmaliMethod,
                                 invoke: Instruction) -> Optional[bool]:
        # registers: {path, permString}
        perms = method.resolve_argument(invoke, 1)
        if not isinstance(perms, str) or not _POSIX_PERM_RE.match(perms):
            return None
        return perms[6] == "r"
