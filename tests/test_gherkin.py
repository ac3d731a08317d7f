from __future__ import annotations

import itertools
import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from modcomplete.gherkin import (
    KEYWORDS,
    TERMINAL_PUNCT,
    DuplicateId,
    EmptyId,
    InvalidId,
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
    """Character-level reference tokenizer (independent of tokenize()): a
    trailing mark is peeled when its NFKC form is an ASCII comma, period or
    semicolon."""
    out = []
    chunk = ""
    for ch in text + " ":
        if ch.isspace():
            if not chunk:
                continue
            tail = ""
            while chunk and unicodedata.normalize("NFKC", chunk[-1]) in ",.;":
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


@given(st.text(alphabet="abcG ivenwhthndor,.;() \t\uff0c\uff0e\uff1b", max_size=60))
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


def _requirement(text):
    return parse_requirement(RequirementDoc("R", text))


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (_requirement, "Then something happens", MissingGiven, "requirement has no 'Given' (token 0)"),
        (_requirement, "Given alpha When beta.", MissingThen, "requirement has no 'Then' (token 4)"),
        (_requirement, "alpha Given beta Then x", OutOfOrderKeyword,
         "requirement must start with 'Given' (token 0)"),
        (_requirement, "When alpha Given beta Then x", OutOfOrderKeyword, "'When' before 'Given' (token 0)"),
        (_requirement, "and alpha Given beta Then x", OutOfOrderKeyword, "'and' before 'Given' (token 0)"),
        (_requirement, "Given alpha Then beta When gamma", OutOfOrderKeyword,
         "'When' cannot follow the Then section (token 4)"),
        (_requirement, "Given alpha or beta Then x", OutOfOrderKeyword,
         "'or' is only allowed between When clauses (token 2)"),
        (_requirement, "Given When beta Then x", OutOfOrderKeyword, "empty clause after 'Given' (token 1)"),
        (_requirement, "Given alpha Then beta and.", OutOfOrderKeyword, "empty clause after 'and' (token 4)"),
        (_requirement, "Given alpha When beta or gamma and delta Then x", MixedAndOr,
         "When group mixes 'and' and 'or' (token 6)"),
        (parse_corpus, "@id: A\nScenario: s\n\n@id: B\nGiven a Then b\n", DuplicateId,
         "lines 1 and 4: two @id: tags with no requirement between them"),
        (parse_corpus, "@id: X\nGiven a Then b\nScenario:\n@id: X\nGiven c Then d\n", DuplicateId,
         "requirement id 'X' used twice"),
        (parse_corpus, "Given a Then b\n@smoke @id: A @id: B\nGiven c Then d\n", DuplicateId,
         "line 2: two @id: tags on one line"),
        (parse_corpus, "@id:A@id:B\nGiven a Then b\n", DuplicateId, "line 1: two @id: tags on one line"),
        (parse_corpus, "@id: @id: B\nGiven a Then b\n", DuplicateId, "line 1: two @id: tags on one line"),
        (parse_corpus, "Given a Then b\n@id:\nGiven c Then d\n", EmptyId, "line 2: @id: tag names no id"),
        (parse_corpus, "Given a Then b\n@id:B\n", EmptyId, "line 2: @id: tag 'B' tags no requirement"),
        (parse_corpus, "Given a Then b\n\n@id:A@smoke\nGiven c Then d\n", InvalidId,
         "line 3: @id: tag 'A@smoke' holds '@'"),
    ],
)
def test_each_parse_error_has_its_class_message_and_position(parse, text, error, message):
    """One row per raise site of ``parse_requirement`` (the empty-clause
    site twice: a keyword ends the clause, or the text does) and of
    ``parse_corpus``. A requirement error's position is the token index
    its message ends with."""
    with pytest.raises(error) as raised:
        parse(text)
    assert type(raised.value) is error
    assert str(raised.value) == message
    if isinstance(raised.value, ParseError):
        assert message.endswith(f"(token {raised.value.position})")


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


# The clause grammar as a regular expression over one symbol per
# non-punctuation token: G, W, T, A, O for the keywords, x for a word.
GRAMMAR = re.compile(r"(?P<given>Gx+(Ax+)*)(?P<when>Wx+((Ax+)*|(Ox+)*))?(?P<then>Tx+(Ax+)*)")
SYMBOLS = {"given": "G", "when": "W", "then": "T", "and": "A", "or": "O"}
# How each symbol is written; p is a punctuation chunk, which has no symbol.
SPELLINGS = {
    "G": ["Given", "GIVEN", "\uff27iven"], "W": ["When", "when"], "T": ["Then", "THEN"],
    "A": ["and", "And"], "O": ["or", "OR"], "x": ["train", "andy", "in,", "Brake\uff0e"], "p": [",", "\uff1b"],
}


@st.composite
def derivations(draw):
    """A symbol string the grammar derives."""

    def section(lead, connective):
        clauses = [[connective] + ["x"] * draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, 3)))]
        clauses[0][0] = lead
        return [s for clause in clauses for s in clause]

    symbols = section("G", "A")
    if draw(st.booleans()):
        symbols += section("W", draw(st.sampled_from("AO")))
    return symbols + section("T", "A")


def one_symbol_edits(symbols):
    """The string, and each string one symbol inserted, deleted or replaced
    away from it."""
    yield symbols
    for at in range(len(symbols) + 1):
        yield symbols[:at] + symbols[at + 1:]
        for symbol in "GWTAOx":
            yield symbols[:at] + [symbol] + symbols[at:]
            yield symbols[:at] + [symbol] + symbols[at + 1:]


@given(st.one_of(st.lists(st.sampled_from("GWTAOxp"), max_size=10), derivations()))
def test_parse_requirement_accepts_exactly_the_reference_grammar(base):
    """Random symbols almost never spell a requirement, so half the bases
    are derivations; each base is checked with every one-symbol edit."""
    for symbols in one_symbol_edits(base):
        text = " ".join(SPELLINGS[s][i % len(SPELLINGS[s])] for i, s in enumerate(symbols))
        read = "".join(SYMBOLS.get(t.lower, "x") for t in tokenize(text) if t.lower not in TERMINAL_PUNCT)
        match = GRAMMAR.fullmatch(read)
        try:
            ast = parse_requirement(RequirementDoc("R", text))
        except ParseError:
            assert match is None, text
            continue
        assert match is not None, text
        for section in ("given", "when", "then"):
            expected = [(lead, len(words)) for lead, words in re.findall(r"([GWTAO])(x+)", match[section] or "")]
            assert [(SYMBOLS[c.lead.lower], len(c.words)) for c in getattr(ast, section)] == expected, text


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


def test_every_gherkin_header_ends_a_block():
    headers = [
        "Feature:", "Rule:", "Background:", "Scenario:", "Scenario Outline:", "Scenario Template:",
        "Example:", "Examples:", "Scenarios:",
    ]
    text = "".join(f"{header} title\nGiven b{i}\n" for i, header in enumerate(headers))
    assert parse_corpus(text) == [RequirementDoc(f"REQ-{i + 1:03d}", f"Given b{i}") for i in range(9)]


def test_a_tag_line_is_never_body_text():
    """Any line starting with ``@`` is a tag line: it ends the block, an
    ``@id:`` tag anywhere on it names the next one, other tags are dropped,
    and only tag lines with an id count as a second tag."""
    text = (
        "@smoke\nScenario: a\nGiven a\n"
        "@slow @id: R2 @wip\n@smoke\nScenario: b\nGiven b\n"
        "Scenario: c\nGiven c\n@flaky\nGiven d\n"
    )
    assert parse_corpus(text) == [
        RequirementDoc("REQ-001", "Given a"),
        RequirementDoc("R2", "Given b"),
        RequirementDoc("REQ-003", "Given c"),
        RequirementDoc("REQ-004", "Given d"),
    ]
    with pytest.raises(DuplicateId, match="lines 1 and 3: two @id: tags"):
        parse_corpus("@id: A @smoke\n@smoke\n@wip @id:B\nGiven a\n")


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


@pytest.mark.parametrize("text, error, message", [
    ("@id: X\nGiven a Then b\n@id: X\nGiven c Then d\n@id:\nGiven e Then f\n", DuplicateId,
     "requirement id 'X' used twice"),
    ("@id: REQ-002\nGiven a Then b\nScenario: s\nGiven c Then d\n@id: A@wip\nGiven e Then f\n", DuplicateId,
     "requirement id 'REQ-002' used twice"),
    ("@id: X\nGiven a Then b\n@id: Y@wip\nGiven c Then d\n@id: X\nGiven e Then f\n", InvalidId,
     "line 3: @id: tag 'Y@wip' holds '@'"),
], ids=["repeat-before-empty", "numbered-repeat-before-invalid", "invalid-before-repeat"])
def test_parse_corpus_raises_the_first_fault_in_file_order(text, error, message):
    """A repeated id is a fault of the block that repeats it, found when
    that block closes, before any tag line after it is read."""
    with pytest.raises(error) as info:
        parse_corpus(text)
    assert str(info.value) == message


def test_parse_corpus_duplicate_id():
    text = (
        "Scenario: a\n@id: X\nGiven alpha Then beta\n"
        "Scenario: b\n@id: X\nGiven gamma Then delta\n"
    )
    with pytest.raises(DuplicateId):
        parse_corpus(text)
