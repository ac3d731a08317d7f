from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from modcomplete.gherkin import (
    KEYWORDS,
    TERMINAL_PUNCT,
    DuplicateId,
    MissingGiven,
    MissingThen,
    MixedAndOr,
    OutOfOrderKeyword,
    ParseError,
    RequirementDoc,
    parse_corpus,
    parse_requirement,
    tokenize,
)

from conftest import RAILWAY_REQUIREMENT


def reference_tokenize(text: str):
    """Character-level reference tokenizer (independent of tokenize())."""
    out = []
    chunk = ""
    for ch in text + " ":
        if ch.isspace():
            if not chunk:
                continue
            tail = ""
            while chunk and chunk[-1] in ",.;":
                tail = chunk[-1] + tail
                chunk = chunk[:-1]
            if chunk:
                kind = "keyword" if chunk.lower() in {"given", "when", "then", "and", "or"} else "word"
                out.append((kind, chunk))
            for p in tail:
                out.append(("punct", p))
            chunk = ""
        else:
            chunk += ch
    return out


def kinds(tokens):
    """(kind, text) per token; a token's kind is read from its ``lower``."""
    return [
        ("keyword" if t.lower in KEYWORDS else "punct" if t.lower in TERMINAL_PUNCT else "word", t.text)
        for t in tokens
    ]


def test_tokenize_simple_clause():
    tokens = tokenize("Given a Train in running,")
    assert kinds(tokens) == [
        ("keyword", "Given"),
        ("word", "a"),
        ("word", "Train"),
        ("word", "in"),
        ("word", "running"),
        ("punct", ","),
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_railway_sentence_against_reference():
    tokens = tokenize(RAILWAY_REQUIREMENT)
    assert kinds(tokens) == reference_tokenize(RAILWAY_REQUIREMENT)
    # frozen values computed with the reference tokenizer
    assert len(tokens) == 29
    assert [t.index for t in tokens if t.lower in KEYWORDS] == [0, 6, 16, 24]


@given(st.text(alphabet="abcG ivenwhthndor,.;() \t", max_size=60))
def test_tokenize_matches_reference_everywhere(text):
    assert kinds(tokenize(text)) == reference_tokenize(text)


def test_a_full_width_keyword_reads_as_a_keyword():
    """A keyword is read in its folded form, so full-width letters (NFKC
    maps them to ASCII) spell one too."""
    text = "\uff27\uff49\uff56\uff45\uff4e a Train in running, \uff34\uff28\uff25\uff2e the Train goes in braking."
    tokens = tokenize(text)
    assert [t.lower for t in tokens if t.lower in KEYWORDS] == ["given", "then"]
    ast = parse_requirement(RequirementDoc("R", text))
    assert [len(ast.given), len(ast.when), len(ast.then)] == [1, 0, 1]


def test_parse_railway_requirement():
    ast = parse_requirement(RequirementDoc(id="REQ-001", text=RAILWAY_REQUIREMENT))
    words = lambda c: " ".join(t.text for t in c.words)
    assert [words(c) for c in ast.given] == ["a Train in running"]
    assert [words(c) for c in ast.when] == [
        "the Braking Supervision receives an Emergency Stop Message"
    ]
    assert [words(c) for c in ast.then] == [
        "the Braking Supervision activates the Emergency Brake",
        "goes in braking",
    ]
    assert [c.lead.lower for c in ast.when] == ["when"]


def test_then_alone_is_missing_given():
    with pytest.raises(MissingGiven):
        parse_requirement(RequirementDoc(id="R", text="Then something happens"))


def test_missing_then():
    with pytest.raises(MissingThen):
        parse_requirement(RequirementDoc(id="R", text="Given alpha When beta"))


def test_disjunctive_when():
    ast = parse_requirement(
        RequirementDoc(id="R", text="Given alpha When beta or gamma Then delta")
    )
    assert [c.lead.lower for c in ast.when] == ["when", "or"]


def test_mixed_and_or_rejected():
    with pytest.raises(MixedAndOr):
        parse_requirement(
            RequirementDoc(id="R", text="Given alpha When beta and gamma or delta Then x")
        )


@pytest.mark.parametrize("first, other", [("and", "or"), ("or", "and")])
def test_mixed_and_or_raised_at_first_differing_connective_of_a_long_when(first, other):
    """Tokens: Given alpha When w0, then one connective and one word per
    further clause, so the differing connective after n clauses is token
    2n + 2."""
    n = 2000
    when = f" {first} ".join(f"w{i}" for i in range(n))
    doc = RequirementDoc(id="R", text=f"Given alpha When {when} {other} z {first} y Then x")
    with pytest.raises(MixedAndOr) as raised:
        parse_requirement(doc)
    assert raised.value.position == 2 * n + 2
    assert str(raised.value) == f"When group mixes 'and' and 'or' (token {2 * n + 2})"


@pytest.mark.parametrize(
    "text",
    [
        "Given alpha or beta Then x",
        "Given alpha Then beta or gamma",
        "and alpha Given beta Then x",
        "When alpha Given beta Then x",
        "Given alpha Then beta When gamma",
        "Given alpha When beta Then gamma Given delta",
        "alpha Given beta Then x",
        "Given When beta Then x",
        "Given alpha Then beta and",
    ],
)
def test_out_of_order_and_misplaced_keywords(text):
    with pytest.raises(OutOfOrderKeyword):
        parse_requirement(RequirementDoc(id="R", text=text))


def test_keyword_permutation_suite():
    # The grammar accepts exactly Given [When] Then as section order.
    fillers = {"given": "alpha", "when": "beta", "then": "gamma"}
    for n in (1, 2, 3, 4):
        for combo in itertools.product(["given", "when", "then"], repeat=n):
            text = " ".join(f"{kw.capitalize()} {fillers[kw]}" for kw in combo)
            expected_ok = combo in (("given", "then"), ("given", "when", "then"))
            doc = RequirementDoc(id="R", text=text)
            if expected_ok:
                ast = parse_requirement(doc)
                section_of = [(k, c.lead.lower) for k in ("given", "when", "then") for c in getattr(ast, k)]
                assert section_of == [(k, k) for k in combo]
            else:
                with pytest.raises(ParseError):
                    parse_requirement(doc)


def assert_lossless(text: str) -> None:
    ast = parse_requirement(RequirementDoc(id="R", text=text))
    tokens = tokenize(text)
    accounted = [t for c in ast.given + ast.when + ast.then for t in (c.lead, *c.words)]
    accounted += [t for t in tokens if t.lower in TERMINAL_PUNCT]
    assert sorted(t.index for t in accounted) == list(range(len(tokens)))
    rebuilt = "".join(t.text for t in sorted(accounted, key=lambda t: t.index))
    assert rebuilt == "".join(text.split())


def test_segmentation_is_lossless():
    assert_lossless(RAILWAY_REQUIREMENT)
    assert_lossless("Given alpha and beta When gamma or delta Then epsilon and zeta.")
    assert_lossless("Given a, b; c Then d.")


def test_clause_count_matches_separators():
    text = "Given alpha and beta When gamma and delta and epsilon Then zeta"
    ast = parse_requirement(RequirementDoc(id="R", text=text))
    assert len(ast.given) == 2
    assert len(ast.when) == 3
    assert len(ast.then) == 1


def test_parse_corpus_single_scenario():
    docs = parse_corpus("Scenario: one\nGiven alpha Then beta\n")
    assert docs == [RequirementDoc("REQ-001", "Given alpha Then beta")]


def test_parse_corpus_header_lines_only_separate_blocks():
    """``Feature:`` and ``Scenario:`` lines end a block and add nothing to
    any document; a line that only starts with the word is body text."""
    text = "Feature: F\nGiven a\nScenario:\nThen b\nScenarios are text\nFeature:x\nGiven c\n"
    assert parse_corpus(text) == [
        RequirementDoc("REQ-001", "Given a"),
        RequirementDoc("REQ-002", "Then b Scenarios are text"),
        RequirementDoc("REQ-003", "Given c"),
    ]


def test_parse_corpus_id_tag():
    docs = parse_corpus("Scenario: tagged\n@id: SAFETY-7\nGiven alpha Then beta\n")
    assert docs[0].id == "SAFETY-7"


def test_parse_corpus_id_tag_before_scenario_line():
    docs = parse_corpus("@id: SAFETY-7\nScenario: tagged\nGiven alpha Then beta\n")
    assert docs[0].id == "SAFETY-7"


def test_a_tag_line_after_body_text_ends_the_block():
    text = "@id: R1\nGiven a Then b\n\n@id: R2\nGiven c\nThen d\n\n@id: R3\nGiven e Then f\n"
    assert parse_corpus(text) == [
        RequirementDoc("R1", "Given a Then b"),
        RequirementDoc("R2", "Given c Then d"),
        RequirementDoc("R3", "Given e Then f"),
    ]


def test_two_tag_lines_with_no_body_between_them_are_one_error():
    with pytest.raises(DuplicateId) as info:
        parse_corpus("@id: A\nScenario: s\n\n@id: B\nGiven a Then b\n")
    assert str(info.value) == "lines 1 and 4: two @id: tags with no requirement between them"


def test_parse_corpus_empty_file():
    assert parse_corpus("") == []
    assert parse_corpus("# only a comment\n\n") == []


def test_parse_corpus_headerless_body():
    docs = parse_corpus("Given alpha Then beta\n")
    assert len(docs) == 1
    assert docs[0].id == "REQ-001"


def test_parse_corpus_feature_and_multiline_body():
    text = (
        "Feature: Braking\n"
        "# comment line\n"
        "Scenario: split over lines\n"
        "Given alpha\n"
        "Then beta\n"
        "Scenario: second\n"
        "Given gamma Then delta\n"
    )
    docs = parse_corpus(text)
    assert docs == [
        RequirementDoc("REQ-001", "Given alpha Then beta"),
        RequirementDoc("REQ-002", "Given gamma Then delta"),
    ]


def test_parse_corpus_duplicate_id():
    text = (
        "Scenario: a\n@id: X\nGiven alpha Then beta\n"
        "Scenario: b\n@id: X\nGiven gamma Then delta\n"
    )
    with pytest.raises(DuplicateId):
        parse_corpus(text)
