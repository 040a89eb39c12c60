"""The §4.4 loop-signature search against an in-order reference.

``Checker._infer_loop_signature`` checks every candidate but the last
refutation-first (an `if`'s cheap exit branch before its recursive
branch).  The reference below is the plain search: each candidate in
:func:`candidate_signatures` order, checked in program order.  Both
must pick the same signature for every loop, and where every candidate
fails they must raise the same error text.
"""

import pytest

from repro.checker.check import Checker
from repro.checker.errors import CheckError
from repro.checker.infer import candidate_signatures
from repro.corpus.generator import build_all_libraries
from repro.fuzz.gen import generate_program
from repro.logic.prove import Logic
from repro.study.casestudy import _expand_module, access_sites, safe_replace
from repro.syntax.parser import parse_program
from repro.tr.objects import Var
from repro.tr.parse import NAT
from repro.tr.props import IsType
from repro.tr.results import fresh_watermark, reset_fresh_names, result_of_type
from repro.tr.types import Fun

from test_checker_loops import FORWARD_SAFE


class ReferenceChecker(Checker):
    """Today's search: every candidate in order, branches in program order."""

    def _infer_loop_signature(self, env, name, lam):
        last_error = None
        for domains, rng in candidate_signatures(lam, self.nat_heuristic):
            candidate = Fun(tuple(zip(lam.param_names(), domains)), result_of_type(rng))
            trial_env = self.logic.extend(env, IsType(Var(name), candidate))
            try:
                self.check_against(trial_env, lam, candidate)
                return candidate
            except CheckError as exc:
                last_error = exc
        raise CheckError(
            f"could not infer a type for the loop function {name!r}"
            + (f"\nlast attempt failed with:\n{last_error}" if last_error else ""),
            lam,
        )


def _outcome(search, env, name, lam):
    try:
        return search(env, name, lam)
    except CheckError as exc:
        return exc


def _comparable(outcome):
    if isinstance(outcome, CheckError):
        return (type(outcome).__name__, str(outcome))
    return outcome


class DifferentialChecker(Checker):
    """Runs both searches on every loop it meets, from the same state.

    The reference runs first, on its own engine; the fresh-name counter
    is rewound before the real search, so both start from the same
    name.  Nested loops are compared too, inside probes as well.
    """

    def __init__(self, reference_logic, **kwargs):
        super().__init__(**kwargs)
        self.reference = ReferenceChecker(
            logic=reference_logic, nat_heuristic=self.nat_heuristic
        )
        self.pairs = []

    def _infer_loop_signature(self, env, name, lam):
        self.reference._mutated = self._mutated
        self.reference._declared = dict(self._declared)
        mark = fresh_watermark()
        expected = _outcome(self.reference._infer_loop_signature, env, name, lam)
        reset_fresh_names(mark)
        actual = _outcome(super()._infer_loop_signature, env, name, lam)
        self.pairs.append((_comparable(expected), _comparable(actual)))
        if isinstance(actual, CheckError):
            raise actual
        return actual


def _study_programs(scale):
    """Every site variant the §5 study checks, at a reduced scale."""
    for library in build_all_libraries(scale).values():
        for instance in library.programs:
            for source in (instance.base, instance.annotated, instance.modified):
                if source is None:
                    continue
                forms = _expand_module(source)
                for site in range(access_sites(forms)):
                    yield safe_replace(forms, site)


#: loops whose winners sit at different places in the candidate order
HAND_WRITTEN = (
    # the first candidate (Nat domain, Nat range) wins
    """
    (: scan : (Vecof Int) -> Int)
    (define (scan v)
      (let loop ([i 0])
        (if (< i (len v))
            (if (= (vec-ref v i) 0) i (loop (+ i 1)))
            i)))
    """,
    FORWARD_SAFE,
    # a Void range, and an unannotated definition around a loop
    """
    (define (zero-all! v)
      (for ([i (in-range (len v))])
        (safe-vec-set! v i 0)))
    """,
    # no candidate checks
    """
    (: vsum : (Vecof Int) -> Int)
    (define (vsum A)
      (for/sum ([i (in-range (- (len A) 1) -1 -1)])
        (safe-vec-ref A i)))
    """,
)


def _fuzz_programs(count):
    """Generated programs with a loop, and their ill-typed mutants."""
    for index in range(count):
        spec = generate_program(2016, index)
        if "loop" not in spec.features:
            continue
        yield spec.source
        for mutant in spec.mutants:
            yield mutant.source


def _compare(programs, nat_heuristic=True):
    main_logic, reference_logic = Logic(), Logic()
    pairs = []
    for program in programs:
        checker = DifferentialChecker(
            reference_logic, logic=main_logic, nat_heuristic=nat_heuristic
        )
        try:
            checker.check_program(parse_program(program))
        except CheckError:
            pass
        pairs.extend(checker.pairs)
    return pairs


def _assert_agree(pairs):
    mismatched = [(expected, actual) for expected, actual in pairs if expected != actual]
    assert not mismatched, mismatched[0]


@pytest.fixture(scope="module")
def study_pairs():
    return _compare(list(_study_programs(0.25)))


@pytest.fixture(scope="module")
def fuzz_pairs():
    return _compare(list(_fuzz_programs(150)))


class TestSameSignature:
    def test_study_corpus(self, study_pairs):
        assert len(study_pairs) >= 50
        _assert_agree(study_pairs)

    def test_study_corpus_reaches_all_failing_loops(self, study_pairs):
        failing = [pair for pair in study_pairs if isinstance(pair[0], tuple)]
        assert failing
        assert all(
            "could not infer a type for the loop function" in expected[1]
            for expected, _ in failing
        )

    def test_fuzz_programs_and_mutants(self, fuzz_pairs):
        assert len(fuzz_pairs) >= 20
        assert any(isinstance(expected, tuple) for expected, _ in fuzz_pairs)
        _assert_agree(fuzz_pairs)

    def test_hand_written_loops(self):
        pairs = _compare(HAND_WRITTEN)
        _assert_agree(pairs)
        scan_loop = pairs[0][1]
        assert [d for _, d in scan_loop.args] == [NAT]
        assert scan_loop.result.type == NAT

    def test_heuristic_off(self):
        pairs = _compare(list(_study_programs(0.05)), nat_heuristic=False)
        assert pairs
        _assert_agree(pairs)


class TestFewerProofs:
    def test_forward_for_sum_asks_fewer_queries(self):
        def prove_calls(checker_class):
            logic = Logic()
            checker_class(logic=logic).check_program(parse_program(FORWARD_SAFE))
            return logic.stats.prove_calls

        assert prove_calls(Checker) < prove_calls(ReferenceChecker)


class TestReportedErrors:
    def test_the_last_candidate_keeps_program_order(self):
        # Both branches fail under every candidate, each with its own
        # error.  The reported one is the last candidate's in-order
        # error: the recursive call's arity, not the exit's `(+ i #t)`.
        source = """
        (define (count-up n)
          (let loop ([i 0])
            (if (< i n) (loop (+ i 1) #t) (+ i #t))))
        """
        messages = []
        for checker_class in (ReferenceChecker, Checker):
            with pytest.raises(CheckError) as info:
                checker_class(logic=Logic()).check_program(parse_program(source))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[1].endswith("expected 1 arguments, got 2")

    def test_checks_after_the_search_keep_program_order(self):
        # vsum's loop is won by a probe; the annotated g after it must
        # still report its then-branch error, not its cheap else's.
        source = FORWARD_SAFE + """
        (: g : Int -> Int)
        (define (g n) (if (< n 0) (vsum #t) (+ n #t)))
        """
        messages = []
        for checker_class in (ReferenceChecker, Checker):
            checker = checker_class(logic=Logic())
            with pytest.raises(CheckError) as info:
                checker.check_program(parse_program(source))
            messages.append(str(info.value))
            assert not checker._refute_first
        assert messages[0] == messages[1]
        assert "argument 1" in messages[1]
