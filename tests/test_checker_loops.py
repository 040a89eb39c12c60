"""Loop/macro inference scenarios (section 4.4)."""

import pytest

from repro.checker.check import Checker, check_program_text
from repro.checker.errors import CheckError
from repro.syntax.parser import parse_program


def checks(src, **kwargs):
    check_program_text(src, **kwargs)
    return True


def fails(src, **kwargs):
    with pytest.raises(CheckError):
        check_program_text(src, **kwargs)
    return True


FORWARD_SAFE = """
(: vsum : (Vecof Int) -> Int)
(define (vsum A)
  (for/sum ([i (in-range (len A))])
    (safe-vec-ref A i)))
"""

REVERSE_SAFE = """
(: rsum : (Vecof Int) -> Int)
(define (rsum A)
  (for/sum ([i (in-range (- (len A) 1) -1 -1)])
    (safe-vec-ref A i)))
"""


class TestNatHeuristic:
    def test_forward_loop_with_safe_access(self):
        assert checks(FORWARD_SAFE)

    def test_reverse_loop_with_safe_access_fails(self):
        # §4.4: "the heuristic quickly fails in the reverse iteration case"
        assert fails(REVERSE_SAFE)

    def test_reverse_loop_with_plain_access_checks(self):
        assert checks(REVERSE_SAFE.replace("safe-vec-ref", "vec-ref"))

    def test_heuristic_disabled_fails_forward_case(self):
        # without trying Nat, pos : Int cannot establish 0 ≤ pos
        assert fails(FORWARD_SAFE, nat_heuristic=False)

    def test_plain_loop_checks_without_heuristic(self):
        assert checks(
            FORWARD_SAFE.replace("safe-vec-ref", "vec-ref"), nat_heuristic=False
        )

    def test_heuristic_off_keeps_an_annotated_nat_domain(self):
        # the ablation drops only the Nats the heuristic would introduce
        source = """
        (: nl : (Vecof Int) -> Int)
        (define (nl ds)
          (let loop ([i : Nat (len ds)] [res : Int 1])
            (cond
              [(zero? i) res]
              [else (loop (- i 1) (* res (vec-ref ds (- i 1))))])))
        """
        assert checks(source)
        assert checks(source, nat_heuristic=False)


class TestForForms:
    def test_for_sum_with_bounds(self):
        assert checks(
            """
            (: f : Int -> Int)
            (define (f n) (for/sum ([i (in-range n)]) i))
            """
        )

    def test_for_product(self):
        assert checks(
            """
            (: f : (Vecof Int) -> Int)
            (define (f v)
              (for/product ([i (in-range (len v))])
                (safe-vec-ref v i)))
            """
        )

    def test_plain_for_effects(self):
        assert checks(
            """
            (: zero-all! : (Vecof Int) -> Void)
            (define (zero-all! v)
              (for ([i (in-range (len v))])
                (safe-vec-set! v i 0)))
            """
        )

    def test_for_fold(self):
        assert checks(
            """
            (: maxlen : (Vecof (Vecof Int)) -> Int)
            (define (maxlen dss)
              (for/fold ([acc 0]) ([i (in-range (len dss))])
                (max acc (len (safe-vec-ref dss i)))))
            """
        )

    def test_two_vector_loop_needs_length_fact(self):
        assert fails(
            """
            (: f : (Vecof Int) (Vecof Int) -> Int)
            (define (f A B)
              (for/sum ([i (in-range (len A))])
                (safe-vec-ref B i)))
            """
        )

    def test_two_vector_loop_with_unless_guard(self):
        assert checks(
            """
            (: f : (Vecof Int) (Vecof Int) -> Int)
            (define (f A B)
              (unless (= (len A) (len B)) (error "bad"))
              (for/sum ([i (in-range (len A))])
                (safe-vec-ref B i)))
            """
        )


class TestNamedLet:
    def test_annotated_named_let(self):
        assert checks(
            """
            (: count-down : Nat -> Nat)
            (define (count-down n)
              (let loop ([i : Nat n])
                (if (zero? i) 0 (loop (- i 1)))))
            """
        )

    def test_weak_nat_annotation_fails_safe_access(self):
        assert fails(
            """
            (: prod : (Vecof Int) -> Int)
            (define (prod ds)
              (let loop ([i : Nat (len ds)] [res : Int 1])
                (cond
                  [(zero? i) res]
                  [else (loop (- i 1) (* res (safe-vec-ref ds (- i 1))))])))
            """
        )

    def test_refined_annotation_verifies(self):
        # §5.1 "Annotations added"
        assert checks(
            """
            (: prod : (Vecof Int) -> Int)
            (define (prod ds)
              (let loop ([i : (Refine [i : Nat] (<= i (len ds))) (len ds)]
                         [res : Int 1])
                (cond
                  [(zero? i) res]
                  [else (loop (- i 1) (* res (safe-vec-ref ds (- i 1))))])))
            """
        )

    def test_unannotated_named_let_inferred(self):
        assert checks(
            """
            (: f : (Vecof Int) -> Int)
            (define (f v)
              (let loop ([i 0])
                (if (< i (len v))
                    (+ (safe-vec-ref v i) (loop (+ i 1)))
                    0)))
            """
        )


class TestLetrec:
    def test_annotated_letrec(self):
        assert checks(
            """
            (: f : Nat -> Nat)
            (define (f n)
              (letrec ([go : (Nat -> Nat) (λ ([k : Nat]) (if (zero? k) 0 (go (- k 1))))])
                (go n)))
            """
        )

    def test_inference_reports_best_error(self):
        try:
            check_program_text(REVERSE_SAFE)
        except CheckError as exc:
            assert "loop" in str(exc)
        else:
            raise AssertionError("expected failure")
