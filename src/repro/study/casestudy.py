"""The safe-vector-access case study (section 5, Figure 9).

"During our analysis we tested whether each vector read and write could
be replaced with its equivalent safe-vec- counterpart and still type
check."  This harness does exactly that, per access site, against the
generated corpus:

1. expand each program (accesses are counted post-expansion, once —
   matching the paper's footnote about macros);
2. for each access site, swap in ``safe-vec-ref``/``safe-vec-set!`` and
   re-check the program:
   * base program checks            → **automatically verified**
   * annotated variant checks      → **verified with annotations**
   * modified variant checks       → **verified after modification**
   * ``UnsupportedFeature`` raised → **unimplemented feature**
   * nothing checks                → residue, labelled with the
     category the corpus assigned (beyond scope / unsafe), as the
     paper's authors labelled their residue by manual inspection.

The tiers are *decided by the checker*; the corpus only fixes the idiom
mix.  A ``mismatches`` list records any access whose observed tier
differs from the idiom's expected tier — it should be empty, and the
test suite asserts so on a scaled corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..checker.check import Checker
from ..checker.errors import CheckError, UnsupportedFeature
from ..corpus.generator import Library, build_all_libraries
from ..corpus.patterns import PatternInstance
from ..logic.prove import Logic
from ..sexp.reader import SExp, Symbol, read_all
from ..syntax.macros import expand
from ..syntax.parser import ParseError, parse_program

__all__ = [
    "AccessReport",
    "LibraryResult",
    "StudyResult",
    "analyze_instance",
    "analyze_library",
    "run_case_study",
    "safe_replace",
    "access_sites",
]

_SAFE_MAP = {
    "vec-ref": "safe-vec-ref",
    "vec-set!": "safe-vec-set!",
}

VERIFIED_TIERS = ("auto", "annotation", "modification")


@dataclass
class AccessReport:
    program: str
    pattern: str
    index: int
    expected: str
    observed: str


@dataclass
class LibraryResult:
    name: str
    ops: int
    loc: int
    tier_counts: Dict[str, int]
    mismatches: List[AccessReport]
    invalid_programs: List[str]

    def percentage(self, tier: str) -> float:
        if not self.ops:
            return 0.0
        return 100.0 * self.tier_counts.get(tier, 0) / self.ops

    @property
    def verified_ops(self) -> int:
        return sum(self.tier_counts.get(t, 0) for t in VERIFIED_TIERS)


@dataclass
class StudyResult:
    libraries: Dict[str, LibraryResult]

    @property
    def total_ops(self) -> int:
        return sum(lib.ops for lib in self.libraries.values())

    @property
    def total_auto(self) -> int:
        return sum(lib.tier_counts.get("auto", 0) for lib in self.libraries.values())

    def auto_percentage(self) -> float:
        if not self.total_ops:
            return 0.0
        return 100.0 * self.total_auto / self.total_ops


# ----------------------------------------------------------------------
# access-site manipulation on expanded S-expressions
# ----------------------------------------------------------------------
def _expand_module(source: str) -> List[SExp]:
    return [expand(form) for form in read_all(source)]


def _sites(forms: Sequence[SExp]) -> Iterator[List[list]]:
    """Walk ``forms`` in pre-order; yield at every vector access.

    What is yielded is the live walk stack: one ``[container, next
    position]`` frame per list on the path from ``forms`` down to the
    access, whose own list is ``container[next position - 1]`` of the
    last frame.  Each node is visited once, so a whole walk is linear.
    """
    frames: List[list] = [[forms, 0]]
    while frames:
        frame = frames[-1]
        container, position = frame
        if position == len(container):
            frames.pop()
            continue
        frame[1] = position + 1
        node = container[position]
        if isinstance(node, list) and node:
            head = node[0]
            if isinstance(head, Symbol) and head.name in _SAFE_MAP:
                yield frames
            frames.append([node, 0])


def access_sites(forms: Sequence[SExp]) -> int:
    """Count unique vector operations (post-expansion, pre-order)."""
    return sum(1 for _ in _sites(forms))


def safe_replace(forms: Sequence[SExp], index: int) -> List[SExp]:
    """Replace the ``index``-th access with its safe- counterpart.

    Only the spine from the module down to the swapped access is
    copied; every other subtree is shared with ``forms``.  That is
    safe because neither side is mutated afterwards — the parser and
    the expander build new lists — and each copy keeps its list type,
    so an :class:`~repro.syntax.macros.Expanded` form stays tagged.
    """
    result = list(forms)
    for count, frames in enumerate(_sites(forms)):
        if count == index:
            parent = result
            for depth in range(1, len(frames)):
                position = frames[depth - 1][1] - 1
                original = frames[depth][0]
                child = type(original)(original)
                parent[position] = child
                parent = child
            position = frames[-1][1] - 1
            access = frames[-1][0][position]
            swapped = type(access)(access)
            swapped[0] = Symbol(_SAFE_MAP[access[0].name])
            parent[position] = swapped
            break
    return result


# ----------------------------------------------------------------------
# per-program analysis
# ----------------------------------------------------------------------
def _check_forms(forms: Sequence[SExp], checker: Checker) -> None:
    program = parse_program(list(forms))
    checker.check_program(program)


def analyze_instance(
    instance: PatternInstance,
    checker_factory=None,
) -> List[str]:
    """The observed tier of every access in one corpus program."""
    factory = checker_factory or Checker
    variants: List[Tuple[str, List[SExp]]] = [("auto", _expand_module(instance.base))]
    if instance.annotated is not None:
        variants.append(("annotation", _expand_module(instance.annotated)))
    if instance.modified is not None:
        variants.append(("modification", _expand_module(instance.modified)))

    n_sites = access_sites(variants[0][1])
    observed: List[str] = []
    for site in range(n_sites):
        tier: Optional[str] = None
        for variant_tier, forms in variants:
            try:
                _check_forms(safe_replace(forms, site), factory())
                tier = variant_tier
                break
            except UnsupportedFeature:
                tier = "unimplemented"
                break
            except (CheckError, ParseError):
                continue
        if tier is None:
            expected = (
                instance.expected[site]
                if site < len(instance.expected)
                else "beyond-scope"
            )
            tier = expected if expected not in VERIFIED_TIERS else "unverified"
        observed.append(tier)
    return observed


def analyze_library(
    library: Library,
    checker_factory=None,
    validate_base: bool = False,
) -> LibraryResult:
    """Classify every access site in a library."""
    factory = checker_factory or Checker
    tier_counts: Dict[str, int] = {}
    mismatches: List[AccessReport] = []
    invalid: List[str] = []
    for instance in library.programs:
        if validate_base:
            try:
                _check_forms(_expand_module(instance.base), factory())
            except UnsupportedFeature:
                pass  # struct patterns are *expected* to be unsupported
            except (CheckError, ParseError) as exc:
                invalid.append(f"{instance.name}: {exc}")
                continue
        observed = analyze_instance(instance, factory)
        for site, tier in enumerate(observed):
            tier_counts[tier] = tier_counts.get(tier, 0) + 1
            expected = (
                instance.expected[site]
                if site < len(instance.expected)
                else "beyond-scope"
            )
            if tier != expected:
                mismatches.append(
                    AccessReport(instance.name, instance.pattern, site, expected, tier)
                )
    return LibraryResult(
        name=library.name,
        ops=library.ops,
        loc=library.loc,
        tier_counts=tier_counts,
        mismatches=mismatches,
        invalid_programs=invalid,
    )


def run_case_study(
    scale: float = 1.0,
    checker_factory=None,
    libraries: Optional[Dict[str, Library]] = None,
) -> StudyResult:
    """Run the full section 5 study (use ``scale`` < 1 for quick runs)."""
    libs = libraries if libraries is not None else build_all_libraries(scale)
    return StudyResult(
        {
            name: analyze_library(lib, checker_factory)
            for name, lib in libs.items()
        }
    )
