"""Differential pin of the front end: read → expand → parse.

Digests the ``repr`` of every parsed :class:`~repro.syntax.ast.Program`
over two fixed source sets and compares them with constants recorded
from the recursive reader, the twice-expanding parser and the
``deepcopy``-based site swap this front end replaced:

* the study corpus at seed 1 (the ``study`` benchmark workload's
  corpus): every base, annotated and modified source, parsed from text,
  parsed from its expanded forms, and parsed once per access site with
  that access swapped for its safe counterpart;
* ``generate_program(2016, i)`` for ``i < 300`` (the ``batch``
  workload's population) with all of its mutants, parsed from text
  and from expanded forms.

Along the way it checks that expansion is a fixpoint that draws no
fresh names, and that :func:`safe_replace` equals a ``deepcopy``-based
reference at every site.
"""

import copy
import hashlib

from repro.corpus.generator import build_library
from repro.corpus.profiles import PROFILES, LibraryProfile
from repro.fuzz.gen import generate_program
from repro.sexp.reader import Symbol, read_all
from repro.study.casestudy import access_sites, safe_replace
from repro.syntax.macros import expand
from repro.syntax.parser import ParseError, parse_program
from repro.tr.results import fresh_watermark, reset_fresh_names

STUDY_SEED = 1
POPULATION_SEED = 2016
POPULATION = 300

#: recorded from the front end before the interned-symbol reader
STUDY_DIGEST = "35bc72bfcbe7d2185b86a41e8b281df93728d5879d9fcfc2430a42dd480375f6"
POPULATION_DIGEST = "c84fe20aa704c0ebb05069fc68ef973c405a65318a678dc2ff74341b5d85e4bc"

_SAFE = {"vec-ref": "safe-vec-ref", "vec-set!": "safe-vec-set!"}


def study_corpus(seed):
    programs = []
    for _name, profile in sorted(PROFILES.items()):
        mixed = LibraryProfile(
            name=profile.name,
            loc_target=profile.loc_target,
            tier_ops=dict(profile.tier_ops),
            seed=profile.seed * 1_000_003 + seed,
        )
        programs.extend(build_library(mixed).programs)
    return programs


def reference_replace(forms, index):
    """The site swap as a whole-module ``deepcopy`` and an in-place edit."""
    forms = copy.deepcopy(list(forms))
    count = 0
    stack = [form for form in reversed(forms) if isinstance(form, list)]
    while stack:
        node = stack.pop()
        if node and isinstance(node[0], Symbol) and node[0].name in _SAFE:
            if count == index:
                node[0] = Symbol(_SAFE[node[0].name])
            count += 1
        stack.extend(child for child in reversed(node) if isinstance(child, list))
    return forms


def plain(form):
    """``form`` rebuilt from plain lists (no trace of an earlier expand)."""
    if isinstance(form, list):
        return [plain(item) for item in form]
    return form


def expanded_module(source):
    """The module's forms, expanded from a fresh-name counter at 0."""
    reset_fresh_names()
    forms = [expand(form) for form in read_all(source)]
    for form in forms:
        watermark = fresh_watermark()
        assert expand(expand(form)) == expand(form)
        assert expand(plain(form)) == form
        assert fresh_watermark() == watermark, "re-expansion drew a fresh name"
    return forms


def parsed(source_or_forms):
    try:
        return repr(parse_program(source_or_forms))
    except ParseError as exc:
        return f"ParseError: {exc}"


def study_digest():
    digest = hashlib.sha256()
    for instance in study_corpus(STUDY_SEED):
        for source in (instance.base, instance.annotated, instance.modified):
            if source is None:
                continue
            digest.update(parsed(source).encode())
            forms = expanded_module(source)
            digest.update(parsed(forms).encode())
            for site in range(access_sites(forms)):
                swapped = safe_replace(forms, site)
                assert swapped == reference_replace(forms, site)
                digest.update(parsed(swapped).encode())
    return digest.hexdigest()


def population_digest():
    digest = hashlib.sha256()
    for index in range(POPULATION):
        spec = generate_program(POPULATION_SEED, index)
        for source in [spec.source] + [mutant.source for mutant in spec.mutants]:
            digest.update(parsed(source).encode())
            digest.update(parsed(expanded_module(source)).encode())
    return digest.hexdigest()


def test_study_corpus_parses_as_pinned():
    assert study_digest() == STUDY_DIGEST


def test_batch_population_parses_as_pinned():
    assert population_digest() == POPULATION_DIGEST
