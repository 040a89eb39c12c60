"""Tests for the congruence (parity) theory — the third §3.4 extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.pipeline import check_many
from repro.checker.check import check_program_text
from repro.checker.errors import CheckError
from repro.logic.prove import Logic
from repro.theories.congruence import CongruenceTheory, merge_congruences
from repro.tr.objects import Var, lin_add, lin_scale, obj_int
from repro.tr.props import Congruence, FF, TT, make_congruence
from repro.tr.props import negate_prop

x, y = Var("x"), Var("y")


class TestMergeCongruences:
    def test_same_modulus_consistent(self):
        assert merge_congruences((2, 1), (2, 1)) == (2, 1)

    def test_same_modulus_inconsistent(self):
        assert merge_congruences((2, 0), (2, 1)) is None

    def test_crt_coprime(self):
        # x ≡ 1 (mod 2), x ≡ 2 (mod 3)  →  x ≡ 5 (mod 6)
        assert merge_congruences((2, 1), (3, 2)) == (6, 5)

    def test_crt_shared_factor_consistent(self):
        # x ≡ 2 (mod 4), x ≡ 0 (mod 6): gcd 2, 2 ≡ 0? 2 % 2 == 0 ✓ → mod 12
        merged = merge_congruences((4, 2), (6, 0))
        assert merged == (12, 6)

    def test_crt_shared_factor_inconsistent(self):
        # x ≡ 1 (mod 4) and x ≡ 0 (mod 6): 1 ≢ 0 (mod 2)
        assert merge_congruences((4, 1), (6, 0)) is None

    def test_crt_huge_coprime_moduli(self):
        # closed form: no stepping through a modulus above 10**12
        m1, m2 = 10**12, 10**12 + 1
        m, r = merge_congruences((m1, 3), (m2, 5))
        assert m == m1 * m2
        assert (r % m1, r % m2) == (3, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 11), st.integers(1, 12), st.integers(0, 11))
    def test_merge_matches_brute_force(self, m1, r1, m2, r2):
        r1, r2 = r1 % m1, r2 % m2
        merged = merge_congruences((m1, r1), (m2, r2))
        witnesses = [
            n for n in range(200) if n % m1 == r1 and n % m2 == r2
        ]
        if merged is None:
            assert witnesses == []
        else:
            m, r = merged
            assert witnesses
            assert all(w % m == r for w in witnesses)


class TestConstructor:
    def test_normalises_residue(self):
        assert make_congruence(x, 2, 5) == Congruence(x, 2, 1)

    def test_constant_folds(self):
        assert make_congruence(obj_int(4), 2, 0) == TT
        assert make_congruence(obj_int(5), 2, 0) == FF

    def test_negation_is_other_residues(self):
        neg = negate_prop(make_congruence(x, 2, 0))
        assert neg == Congruence(x, 2, 1)

    def test_negation_higher_modulus(self):
        from repro.tr.props import Or

        neg = negate_prop(make_congruence(x, 3, 0))
        assert isinstance(neg, Or)
        assert len(neg.disjuncts) == 2


class TestSolver:
    def setup_method(self):
        self.theory = CongruenceTheory()

    def test_direct_fact(self):
        facts = [make_congruence(x, 2, 0)]
        assert self.theory.entails(facts, make_congruence(x, 2, 0))
        assert not self.theory.entails(facts, make_congruence(x, 2, 1))

    def test_linear_combination(self):
        # x even ⟹ x + 1 odd
        facts = [make_congruence(x, 2, 0)]
        goal = make_congruence(lin_add(x, obj_int(1)), 2, 1)
        assert self.theory.entails(facts, goal)

    def test_scaling_is_free(self):
        # 2x is even with no assumptions at all
        goal = make_congruence(lin_scale(2, x), 2, 0)
        assert self.theory.entails([], goal)

    def test_sum_of_parities(self):
        facts = [make_congruence(x, 2, 1), make_congruence(y, 2, 1)]
        goal = make_congruence(lin_add(x, y), 2, 0)
        assert self.theory.entails(facts, goal)

    def test_finer_modulus_implies_coarser(self):
        # x ≡ 2 (mod 4) ⟹ x even
        facts = [make_congruence(x, 4, 2)]
        assert self.theory.entails(facts, make_congruence(x, 2, 0))

    def test_coarser_does_not_imply_finer(self):
        facts = [make_congruence(x, 2, 0)]
        assert not self.theory.entails(facts, make_congruence(x, 4, 0))

    def test_inconsistent_assumptions_entail_anything(self):
        facts = [make_congruence(x, 2, 0), make_congruence(x, 2, 1)]
        assert self.theory.entails(facts, make_congruence(y, 7, 3))

    def test_unknown_atom_declined(self):
        assert not self.theory.entails([], make_congruence(x, 2, 0))


class TestCheckerIntegration:
    def test_double_is_even(self):
        check_program_text(
            """
            (: double : Int -> [r : Int #:where (even r)])
            (define (double x) (* 2 x))
            """
        )

    def test_succ_flips_parity(self):
        check_program_text(
            """
            (: succ-of-even : [x : Int #:where (even x)]
               -> [r : Int #:where (odd r)])
            (define (succ-of-even x) (+ x 1))
            """
        )

    def test_occurrence_typing_with_even_predicate(self):
        check_program_text(
            """
            (: next-even : Int -> [r : Int #:where (even r)])
            (define (next-even n) (if (even? n) n (+ n 1)))
            """
        )

    def test_odd_predicate_else_branch(self):
        check_program_text(
            """
            (: to-odd : Int -> [r : Int #:where (odd r)])
            (define (to-odd n) (if (odd? n) n (+ n 1)))
            """
        )

    def test_wrong_parity_rejected(self):
        with pytest.raises(CheckError):
            check_program_text(
                """
                (: f : Int -> [r : Int #:where (even r)])
                (define (f x) (+ (* 2 x) 1))
                """
            )

    def test_parity_not_assumed_for_unknowns(self):
        with pytest.raises(CheckError):
            check_program_text(
                """
                (: f : Int -> [r : Int #:where (even r)])
                (define (f x) x)
                """
            )

    def test_divisible_syntax(self):
        check_program_text(
            """
            (: triple : Int -> [r : Int #:where (divisible r 3)])
            (define (triple x) (* 3 x))
            """
        )

    def test_runs_consistently(self):
        from repro.interp.eval import run_program_text

        src = """
        (: next-even : Int -> [r : Int #:where (even r)])
        (define (next-even n) (if (even? n) n (+ n 1)))
        (next-even 4)
        (next-even 7)
        """
        check_program_text(src)
        _defs, results = run_program_text(src)
        assert results == (4, 8)


class TestModulusSyntax:
    @pytest.mark.parametrize(
        "prop", ["(divisible r 0)", "(congruent r -2 1)", "(congruent r 0 0)"]
    )
    def test_non_positive_modulus_is_a_parse_error(self, prop, tmp_path):
        bad = tmp_path / "bad.rtr"
        bad.write_text(
            f"(: f : Int -> [r : Int #:where {prop}])\n(define (f x) 0)\n"
        )
        good = tmp_path / "good.rtr"
        good.write_text(
            "(: double : Int -> [r : Int #:where (even r)])\n"
            "(define (double x) (* 2 x))\n"
        )
        report = check_many([str(bad), str(good)], logic=Logic())
        bad_verdict, good_verdict = report.verdicts
        assert not bad_verdict.ok
        assert "modulus must be positive" in bad_verdict.error
        assert good_verdict.ok
