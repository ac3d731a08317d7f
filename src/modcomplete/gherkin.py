"""Clause extraction: tokenize requirement text and build the clause AST.

The grammar over the five keywords (given, when, then, and, or) is

    req := GIVEN clause (AND clause)*
           [WHEN clause ((AND | OR) clause)*]
           THEN clause (AND clause)*

Keywords must appear in Given < When < Then order. ``and``/``or`` always
split clauses at parse time; the matcher may re-merge adjacent clauses when
a single template spans them (an ``and`` can join clauses or noun phrases,
and only matching against the knowledge base can tell which). ``or`` is only
meaningful between When clauses, where it switches the requirement into
disjunctive mode (one alternative trigger per clause).
"""

import re
from typing import NamedTuple

from .errors import ModcompleteError
from .normalize import fold_word

KEYWORDS = frozenset({"given", "when", "then", "and", "or"})
TERMINAL_PUNCT = frozenset({",", ".", ";"})


class Token(NamedTuple):
    """One token with original spelling, ``fold_word`` form, and stream index.
    A keyword's ``lower`` is in ``KEYWORDS``, a punctuation mark's in
    ``TERMINAL_PUNCT``; every other token is a word."""

    text: str
    lower: str
    index: int


class RequirementDoc(NamedTuple):
    id: str
    text: str


class Clause(NamedTuple):
    """A run of words inside one section, introduced by the ``lead`` keyword
    (the section keyword, ``and`` or ``or``)."""

    words: tuple[Token, ...]
    lead: Token


class RequirementAST(NamedTuple):
    """The clauses of each section. The When section is disjunctive when its
    second clause is led by ``or`` (``parse_requirement`` rejects a When
    that mixes ``and`` and ``or``)."""

    id: str
    given: tuple[Clause, ...]
    when: tuple[Clause, ...]
    then: tuple[Clause, ...]


class ParseError(ModcompleteError):
    """Requirement text violates the clause grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (token {position})")
        self.position = position


class MissingGiven(ParseError):
    pass


class MissingThen(ParseError):
    pass


class OutOfOrderKeyword(ParseError):
    """A keyword at a position the grammar does not allow."""


class MixedAndOr(ParseError):
    """Both ``and`` and ``or`` join clauses inside the When group."""


class DuplicateId(ModcompleteError):
    """Two requirements in one corpus ended up with the same id, or one
    requirement was tagged twice."""


def tokenize(text: str) -> list[Token]:
    """Split text on whitespace into keyword/word/punct tokens.

    Terminal punctuation (a comma, period or semicolon, in any width: each
    character whose ``fold_word`` form is in ``TERMINAL_PUNCT``) is peeled
    off the end of each chunk into its own token, whose ``lower`` is the
    ASCII mark; original spelling is preserved on every token.
    """
    tokens: list[Token] = []
    for chunk in text.split():
        trailing: list[tuple[str, str]] = []
        while chunk and (mark := fold_word(chunk[-1])) in TERMINAL_PUNCT:
            trailing.append((chunk[-1], mark))
            chunk = chunk[:-1]
        if chunk:
            tokens.append(Token(chunk, fold_word(chunk), len(tokens)))
        for punct, mark in reversed(trailing):
            tokens.append(Token(punct, mark, len(tokens)))
    return tokens


_SECTION_ORDER = {"given": 0, "when": 1, "then": 2}


def parse_requirement(doc: RequirementDoc) -> RequirementAST:
    """Parse one requirement into its Given/When/Then clause lists.

    Raises:
        MissingGiven, MissingThen: a mandatory section is absent.
        OutOfOrderKeyword: keyword order violates Given < When < Then, or a
            keyword sits where no clause can start or end (``or`` outside
            the When group, a connective before any section, an empty
            clause body).
        MixedAndOr: the When group mixes ``and`` and ``or`` separators.
    """
    tokens = tokenize(doc.text)
    if not any(t.lower == "given" for t in tokens):
        raise MissingGiven("requirement has no 'Given'", 0)

    sections: dict[str, list[Clause]] = {"given": [], "when": [], "then": []}
    when_connective: str | None = None
    current_section: str | None = None
    current_words: list[Token] = []
    current_lead: Token | None = None

    def close_clause(next_kw):
        nonlocal current_words, current_lead
        if current_section is None:
            return
        if not current_words:
            where = next_kw.index if next_kw is not None else current_lead.index
            raise OutOfOrderKeyword(f"empty clause after {current_lead.text!r}", where)
        sections[current_section].append(Clause(tuple(current_words), current_lead))
        current_words = []

    for tok in tokens:
        if tok.lower in TERMINAL_PUNCT:
            continue
        if tok.lower not in KEYWORDS:
            if current_section is None:
                raise OutOfOrderKeyword("requirement must start with 'Given'", tok.index)
            current_words.append(tok)
            continue
        # keyword
        if tok.lower in _SECTION_ORDER:
            order = _SECTION_ORDER[tok.lower]
            if current_section is None:
                if tok.lower != "given":
                    raise OutOfOrderKeyword(f"{tok.text!r} before 'Given'", tok.index)
            else:
                if order <= _SECTION_ORDER[current_section]:
                    raise OutOfOrderKeyword(
                        f"{tok.text!r} cannot follow the {current_section.capitalize()} section",
                        tok.index,
                    )
            close_clause(tok)
            current_section = tok.lower
            current_lead = tok
        else:  # and / or
            if current_section is None:
                raise OutOfOrderKeyword(f"{tok.text!r} before 'Given'", tok.index)
            if tok.lower == "or" and current_section != "when":
                raise OutOfOrderKeyword(
                    "'or' is only allowed between When clauses", tok.index
                )
            if current_section == "when":
                when_connective = when_connective or tok.lower
                if tok.lower != when_connective:
                    raise MixedAndOr("When group mixes 'and' and 'or'", tok.index)
            close_clause(tok)
            current_lead = tok

    close_clause(None)

    if not sections["then"]:
        raise MissingThen("requirement has no 'Then'", tokens[-1].index if tokens else 0)

    return RequirementAST(
        doc.id, tuple(sections["given"]), tuple(sections["when"]), tuple(sections["then"])
    )


_ID_TAG_RE = re.compile(r"@id:\s*([^\s@]\S*)")
_HEADERS = (
    "Feature:", "Rule:", "Background:", "Scenario:", "Scenario Outline:", "Scenario Template:",
    "Example:", "Examples:", "Scenarios:",
)


def parse_corpus(text: str) -> list[RequirementDoc]:
    """Parse a feature file into requirement documents.

    One document per block: a Gherkin header line (``Feature:``,
    ``Scenario:``, ``Rule:``, ``Examples:``, ...) ends one and is otherwise
    ignored (a headerless file with text is a single block). A line that
    starts with ``@`` is a tag line and ends the block too; an ``@id:`` tag
    on it names the next block, any other tag is dropped. Ids are
    ``REQ-<n>`` in file order unless so named. Blank lines and ``#``
    comments are ignored.

    Raises:
        DuplicateId: two blocks resolve to the same requirement id, or two
            ``@id:`` tag lines have no body text between them.
    """
    docs: list[RequirementDoc] = []
    tagged_id: str | None = None
    tag_line = 0
    body: list[str] = []
    counter = 0

    def flush():
        # A tag with no body yet ("@id:" above the Scenario line) carries
        # over to the next block.
        nonlocal tagged_id, body, counter
        if body:
            counter += 1
            rid = tagged_id if tagged_id is not None else f"REQ-{counter:03d}"
            docs.append(RequirementDoc(id=rid, text=" ".join(body)))
            tagged_id = None
        body = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_HEADERS):
            flush()
        elif line.startswith("@"):
            flush()
            if m := _ID_TAG_RE.search(line):
                if tagged_id is not None:
                    raise DuplicateId(f"lines {tag_line} and {line_no}: two @id: tags with no requirement between them")
                tagged_id, tag_line = m.group(1), line_no
        else:
            body.append(line)
    flush()

    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise DuplicateId(f"requirement id {doc.id!r} used twice")
        seen.add(doc.id)
    return docs
