"""Tests for the case-study harness (section 5, Figure 9) at small scale."""

import random

import pytest

from repro.corpus.generator import build_all_libraries
from repro.corpus.patterns import instantiate
from repro.sexp.reader import read_all
from repro.study.casestudy import (
    access_sites,
    analyze_instance,
    analyze_library,
    run_case_study,
    safe_replace,
)
from repro.syntax.macros import expand
from repro.study.report import (
    corpus_table,
    figure9_table,
    headline,
    math_categories_table,
)


@pytest.fixture(scope="module")
def mini_study():
    return run_case_study(scale=0.04)


class TestPerPatternTiers:
    """The checker classifies each idiom exactly as the paper reports."""

    def _tier(self, pattern):
        inst = instantiate(pattern, random.Random(11), "_s_1")
        observed = analyze_instance(inst)
        assert len(set(observed)) == 1, observed
        return observed[0]

    @pytest.mark.parametrize(
        "pattern",
        ["vec_match", "loop_sum", "guard", "dyn_check", "last_elem", "mod_index"],
    )
    def test_auto_patterns(self, pattern):
        assert self._tier(pattern) == "auto"

    @pytest.mark.parametrize("pattern", ["nat_loop", "index_param", "offset_param"])
    def test_annotation_patterns(self, pattern):
        assert self._tier(pattern) == "annotation"

    @pytest.mark.parametrize("pattern", ["swap", "reverse_loop", "const_index"])
    def test_modification_patterns(self, pattern):
        assert self._tier(pattern) == "modification"

    @pytest.mark.parametrize("pattern", ["nonlinear", "dims_of"])
    def test_beyond_scope_patterns(self, pattern):
        assert self._tier(pattern) == "beyond-scope"

    def test_unimplemented_pattern(self):
        assert self._tier("struct_field") == "unimplemented"

    def test_unsafe_pattern(self):
        assert self._tier("mutable_cache") == "unsafe"


class TestAccessSites:
    """Counting and swapping sites is one linear pre-order walk."""

    ACCESSES = 5000

    @pytest.fixture(scope="class")
    def big_module(self):
        # 1000 functions with five accesses each, in nested and sibling
        # positions, plus a named-let loop per function
        defines = []
        for index in range(self.ACCESSES // 5):
            defines.append(
                f"(define (g{index} [v : (Vectorof Int)])"
                f" (let loop ([i 0])"
                f" (when (< i 1) (vec-set! v 0 (vec-ref v (vec-ref v 0)))))"
                f" (+ (vec-ref v 1) (vec-ref v 2)))"
            )
        return [expand(form) for form in read_all("\n".join(defines))]

    def test_counts_every_access(self, big_module):
        assert access_sites(big_module) == self.ACCESSES

    def test_every_counted_site_can_be_swapped(self, big_module):
        for site in (0, 1, 2499, self.ACCESSES - 1):
            swapped = safe_replace(big_module, site)
            assert access_sites(swapped) == self.ACCESSES - 1
        # one past the last site swaps nothing
        assert safe_replace(big_module, self.ACCESSES) == big_module

    def test_swap_shares_everything_off_the_spine(self, big_module):
        swapped = safe_replace(big_module, self.ACCESSES - 1)
        assert swapped[:-1] == big_module[:-1]
        assert all(a is b for a, b in zip(swapped[:-1], big_module[:-1]))
        assert swapped[-1] is not big_module[-1]
        assert type(swapped[-1]) is type(big_module[-1])


class TestMiniStudy:
    def test_no_mismatches(self, mini_study):
        for name, lib in mini_study.libraries.items():
            assert lib.mismatches == [], f"{name}: {lib.mismatches}"

    def test_all_libraries_present(self, mini_study):
        assert set(mini_study.libraries) == {"math", "plot", "pict3d"}

    def test_figure9_shape(self, mini_study):
        """Who wins and by roughly what factor (the paper's shape)."""
        libs = mini_study.libraries
        # plot has by far the highest automatic rate
        assert libs["plot"].percentage("auto") > libs["math"].percentage("auto")
        assert libs["plot"].percentage("auto") > libs["pict3d"].percentage("auto")
        # pict3d's annotations dominate its automatic tier
        assert libs["pict3d"].percentage("annotation") > libs["pict3d"].percentage(
            "auto"
        )
        # only math has a code-modification tier
        assert libs["math"].percentage("modification") > 0
        assert libs["plot"].percentage("modification") == 0

    def test_math_total_verifiable_majority(self, mini_study):
        math = mini_study.libraries["math"]
        verified = sum(
            math.percentage(t) for t in ("auto", "annotation", "modification")
        )
        assert 60 <= verified <= 85  # paper: 72%

    def test_headline_about_half_auto(self, mini_study):
        assert 40 <= mini_study.auto_percentage() <= 65  # paper: ≈50%

    def test_unsafe_ops_detected(self, mini_study):
        math = mini_study.libraries["math"]
        assert math.tier_counts.get("unsafe", 0) >= 1


class TestReports:
    def test_figure9_table_renders(self, mini_study):
        table = figure9_table(mini_study)
        assert "plot" in table and "math" in table and "pict3d" in table
        assert "paper" in table

    def test_corpus_table_renders(self, mini_study):
        table = corpus_table(mini_study)
        assert "total" in table

    def test_math_categories_table(self, mini_study):
        table = math_categories_table(mini_study)
        assert "Beyond our scope" in table
        assert "Unsafe code" in table

    def test_headline_renders(self, mini_study):
        assert "ops" in headline(mini_study)


class TestAblations:
    def test_heuristic_off_moves_loops_out_of_auto(self):
        from repro.checker.check import Checker

        inst = instantiate("loop_sum", random.Random(5), "_s_2")
        with_heuristic = analyze_instance(inst)
        without = analyze_instance(
            inst, checker_factory=lambda: Checker(nat_heuristic=False)
        )
        assert with_heuristic == ["auto"]
        assert without != ["auto"]
