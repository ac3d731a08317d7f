"""Clause extraction: tokenize requirement text and build the clause AST.

The grammar over the five keywords (given, when, then, and, or) is

    req := GIVEN clause (AND clause)*
           [WHEN clause ((AND clause)* | (OR clause)*)]
           THEN clause (AND clause)*

``and``/``or`` always split clauses at parse time; the matcher may re-merge
adjacent clauses when a single template spans them (an ``and`` can join
clauses or noun phrases, and only matching against the knowledge base can
tell which). ``or`` switches the When section into disjunctive mode (one
alternative trigger per clause).
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
    requirement was tagged twice, on one tag line or on two."""


class EmptyId(ModcompleteError):
    """An ``@id:`` tag names no id."""


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


def parse_requirement(doc: RequirementDoc) -> RequirementAST:
    """Parse one requirement into its Given/When/Then clause lists.

    One walk over the tokens: each keyword closes the open clause, and the
    end of the text the last one. ``MissingGiven`` is raised before any
    other fault, then the first fault in token order, ``MissingThen`` last.

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

    clauses: dict[str, list[Clause]] = {"given": [], "when": [], "then": []}
    section = ""  # the open section's keyword; "" before 'Given'
    lead: Token | None = None  # the open clause's lead
    words: list[Token] = []
    for tok in [*tokens, None]:  # None ends the text
        key = tok.lower if tok else None
        if key in TERMINAL_PUNCT:
            continue
        if not section and key != "given":
            what = f"{tok.text!r} before 'Given'" if key in KEYWORDS else "requirement must start with 'Given'"
            raise OutOfOrderKeyword(what, tok.index)
        if tok and key not in KEYWORDS:
            words.append(tok)
            continue
        if section:
            # ``clauses`` holds the sections in the order they must appear.
            if key in clauses and [*clauses].index(key) <= [*clauses].index(section):
                raise OutOfOrderKeyword(f"{tok.text!r} cannot follow the {section.capitalize()} section", tok.index)
            if key == "or" and section != "when":
                raise OutOfOrderKeyword("'or' is only allowed between When clauses", tok.index)
            # A When clause is led by 'when' or by the group's one connective.
            if {lead.lower, key} == {"and", "or"}:
                raise MixedAndOr("When group mixes 'and' and 'or'", tok.index)
            if not words:
                raise OutOfOrderKeyword(f"empty clause after {lead.text!r}", (tok or lead).index)
            clauses[section].append(Clause(tuple(words), lead))
            words = []
        if key in clauses:
            section = key
        lead = tok

    if not clauses["then"]:
        raise MissingThen("requirement has no 'Then'", tokens[-1].index)
    return RequirementAST(doc.id, *map(tuple, clauses.values()))


_ID_TAG_RE = re.compile(r"@id:\s*([^\s@]\S*)")
_BLOCK_ENDS = (  # a tag line or a Gherkin header
    "@", "Feature:", "Rule:", "Background:", "Scenario:", "Scenario Outline:", "Scenario Template:",
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
        DuplicateId: two blocks resolve to the same requirement id, one tag
            line holds two ``@id:`` tags (glued or empty ones included), or
            two ``@id:`` tag lines have no body text between them.
        EmptyId: an ``@id:`` tag is followed by no id on its line.
    """
    docs: list[RequirementDoc] = []
    tag: tuple[str, int] | None = None  # an id waiting for its block's body, and its line
    body: list[str] = []
    for line_no, raw in enumerate([*text.splitlines(), "@"], start=1):  # "@" ends the last block
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith(_BLOCK_ENDS):
            body.append(line)
            continue
        if body:
            docs.append(RequirementDoc(tag[0] if tag else f"REQ-{len(docs) + 1:03d}", " ".join(body)))
            tag, body = None, []
        tags = line.count("@id:") if line[0] == "@" else 0
        if tags > 1:
            raise DuplicateId(f"line {line_no}: two @id: tags on one line")
        if tags:
            found = _ID_TAG_RE.search(line)
            if found is None:
                raise EmptyId(f"line {line_no}: @id: tag names no id")
            if tag:
                raise DuplicateId(f"lines {tag[1]} and {line_no}: two @id: tags with no requirement between them")
            tag = found[1], line_no

    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise DuplicateId(f"requirement id {doc.id!r} used twice")
        seen.add(doc.id)
    return docs
