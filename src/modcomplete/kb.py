"""Knowledge base of translation rules: requirement templates -> fragments.

A MetaReq is a set of clause templates mixing literal words with typed slots
written ``<<Metaclass as role>>``, and it holds its MetaFragment, which says
how bound roles fill one state-machine transition (owner, source, target,
optional trigger, optional send effects). The file format is line oriented::

    # comment
    metareq MR1 -> F1:
      given: "<<Block as context1>> in <<State as starting>>"
      when:  "<<Block as context2>> receives <<Signal as event>>"
      then:  "<<Block as context3>> <<Signal as operation>> (to)? <<Block as context4>>"
      then:  "goes in <<State as final>>"
    fragment F1:
      owner: context1   source: starting   target: final
      trigger: event    effect: operation -> context4

Optional literals are written ``(word|word)?``. Articles never need to be
spelled out: the matcher skips every run of articles before it reads an item,
so parsing drops article words from templates, bare or inside an optional
group (and the group too if nothing is left). MetaReq priority is file order
(earlier wins).
"""

import re
from typing import Iterable, NamedTuple

from .errors import ModcompleteError
from .gherkin import KEYWORDS, SECTIONS
from .model import Metaclass
from .normalize import ARTICLES, fold_word


class KBSyntaxError(ModcompleteError):
    """Malformed knowledge-base document; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownFragment(KBSyntaxError):
    """A metareq maps to a fragment id the document never defines."""


class UntypedRole(KBSyntaxError):
    """A fragment uses a role no slot declares, or with the wrong type."""


class DuplicateRole(KBSyntaxError):
    """The same role is declared by two slots of one metareq."""


class Literal(NamedTuple):
    word: str


class OptionalLiteral(NamedTuple):
    words: tuple[str, ...]


class SlotPattern(NamedTuple):
    metaclass: Metaclass
    role: str


TemplateItem = Literal | OptionalLiteral | SlotPattern


class ClauseTemplate(NamedTuple):
    items: tuple[TemplateItem, ...]


class MetaFragment(NamedTuple):
    """One-transition template parameterized by metareq roles."""

    id: str
    owner_role: str
    source_role: str
    target_role: str
    trigger_role: str | None = None
    effect_specs: tuple[tuple[str, str], ...] = ()  # (signal_role, target_block_role)

    def roles(self) -> tuple[tuple[str, Metaclass], ...]:
        out = [
            (self.owner_role, Metaclass.BLOCK),
            (self.source_role, Metaclass.STATE),
            (self.target_role, Metaclass.STATE),
        ]
        if self.trigger_role is not None:
            out.append((self.trigger_role, Metaclass.SIGNAL))
        for sig, tgt in self.effect_specs:
            out.append((sig, Metaclass.SIGNAL))
            out.append((tgt, Metaclass.BLOCK))
        return tuple(out)


class MetaReq(NamedTuple):
    id: str
    given: tuple[ClauseTemplate, ...]
    when: tuple[ClauseTemplate, ...]
    then: tuple[ClauseTemplate, ...]
    fragment: MetaFragment


class KnowledgeBase(NamedTuple):
    """Rules in priority order, and every fragment defined, used or not."""

    metareqs: tuple[MetaReq, ...] = ()
    fragments: tuple[MetaFragment, ...] = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_METAREQ_RE = re.compile(r"^metareq\s+([\w-]+)\s*->\s*([\w-]+)\s*:\s*$")
_FRAGMENT_RE = re.compile(r"^fragment\s+([\w-]+)\s*:\s*$")
_CLAUSE_RE = re.compile(r"^(given|when|then):\s*\"(.*)\"\s*$")
_ITEM_RE = re.compile(
    r"<<\s*(\w+)\s+as\s+(\w+)\s*>>"  # slot
    r"|\(([^()?]*)\)\?"  # optional literal group
    r"|(\S+)"  # plain word
)
_FRAG_KEY_RE = re.compile(r"\b(owner|source|target|trigger|effect)\s*:")

#: The most items the templates of one section of a metareq keep together
#: (article words are not kept). The matcher reads a requirement as one
#: clause against the rule's :func:`join_templates` template, at most
#: 3 × 100 + 2 items with the two section keywords, and recurses once per item.
SIZE_LIMIT = 100

BOUNDARY = Literal("and")
HEADS = frozenset(map(Literal, SECTIONS))


def join_templates(sections: Iterable[tuple[str, tuple[ClauseTemplate, ...]]]) -> ClauseTemplate:
    """The one template a rule reads as: its (keyword, templates) sections
    joined by ``BOUNDARY`` inside a section and by each later section's
    keyword. No template holds these literals, so they only join."""
    return ClauseTemplate(tuple(item for keyword, templates in sections for i, template in enumerate(templates)
                                for item in (BOUNDARY if i else Literal(keyword), *template.items))[1:])


def _parse_template(kind: str, body: str, line_no: int, col0: int) -> ClauseTemplate:
    # ``_ITEM_RE``'s last branch takes any run of non-blanks, so the items
    # cover every non-blank character of ``body``.
    items: list[TemplateItem] = []
    for m in _ITEM_RE.finditer(body):
        col = col0 + m.start()
        if m.group(1) is not None:
            try:
                items.append(SlotPattern(Metaclass(m.group(1)), m.group(2)))
            except ValueError:
                raise KBSyntaxError(f"unknown metaclass {m.group(1)!r}", line_no, col) from None
        elif m.group(3) is not None:
            words = tuple(fold_word(w.strip()) for w in m.group(3).split("|"))
            if not all(re.fullmatch(r"\w+", w) for w in words):
                raise KBSyntaxError(f"bad optional literal {m.group(0)!r}", line_no, col)
            if any(w in KEYWORDS for w in words):
                raise KBSyntaxError("keywords cannot appear inside templates", line_no, col)
            if words := tuple(w for w in words if w not in ARTICLES):
                items.append(OptionalLiteral(words))
        else:
            word = fold_word(m.group(4))
            if not re.fullmatch(r"[\w]+", word):
                raise KBSyntaxError(f"bad literal {m.group(4)!r}", line_no, col)
            if word in KEYWORDS:
                raise KBSyntaxError("keywords cannot appear inside templates", line_no, col)
            if word not in ARTICLES:
                items.append(Literal(word))
    if not any(isinstance(i, SlotPattern) for i in items):
        raise KBSyntaxError(f"{kind} template declares no slot", line_no, col0)
    return ClauseTemplate(tuple(items))


def _read_fragment_line(line: str, line_no: int, roles: dict[str, str], effects: list[tuple[str, str]]) -> None:
    """Check one line of ``key: value`` pairs and add it to a fragment's roles and effects."""
    anchors = list(_FRAG_KEY_RE.finditer(line))
    if not anchors:
        raise KBSyntaxError(f"expected fragment key, got {line.strip()!r}", line_no)
    if head := line[: anchors[0].start()].strip():
        raise KBSyntaxError(f"unreadable fragment text {head!r}", line_no)
    for i, anchor in enumerate(anchors):
        key, col = anchor.group(1), anchor.start() + 1
        end = anchors[i + 1].start() if i + 1 < len(anchors) else len(line)
        value = line[anchor.end() : end].strip()
        if not value:
            raise KBSyntaxError(f"fragment key {key!r} has no value", line_no, col)
        if key == "effect":
            parts = [p.strip() for p in value.split("->")]
            if len(parts) != 2 or not all(re.fullmatch(r"\w+", p) for p in parts):
                raise KBSyntaxError(f"effect must be 'signal_role -> block_role', got {value!r}", line_no, col)
            effects.append((parts[0], parts[1]))
        elif not re.fullmatch(r"\w+", value):
            raise KBSyntaxError(f"bad role name {value!r}", line_no, col)
        elif key in roles:
            raise KBSyntaxError(f"fragment key {key!r} given twice", line_no, col)
        else:
            roles[key] = value


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and check a knowledge-base document in one walk over its lines.

    A ``metareq`` or ``fragment`` header opens a block; the next header, or
    the end of the text, closes it. The first fault in this order is raised:

    1. each line in file order: a header closes the open block, then checks
       that its id is new; template and fragment lines are checked as read;
    2. a closing block: a metareq needs a given and a then template, and a
       fragment needs ``owner``, ``source`` and ``target``;
    3. after the walk, each metareq in file order: its fragment is defined,
       no role is declared twice, and each fragment role is declared with
       the metaclass the fragment needs.

    Raises:
        KBSyntaxError: a malformed line, template or block, a repeated id,
            a section of more than ``SIZE_LIMIT`` items, or, as its
            subclasses ``UnknownFragment``, ``UntypedRole`` and
            ``DuplicateRole``, a fault of step 3 at the rule's header line.
    """
    # Metareq id -> (header line, fragment id, given, when and then templates).
    rules: dict[str, tuple[int, str, tuple[list[ClauseTemplate], ...]]] = {}
    fragments: dict[str, MetaFragment] = {}
    rule: str | None = None  # the open metareq block's id
    fragment: tuple[int, str, dict[str, str], list[tuple[str, str]]] | None = None

    def close() -> None:
        if rule is not None:
            line, _, (given, _, then) = rules[rule]
            if not given or not then:
                raise KBSyntaxError(f"metareq {rule!r} needs at least one given and one then template", line)
        elif fragment is not None:
            line, fragment_id, roles, effects = fragment
            if missing := [key for key in ("owner", "source", "target") if key not in roles]:
                raise KBSyntaxError(f"fragment {fragment_id!r} lacks {missing[0]!r}", line)
            fragments[fragment_id] = MetaFragment(
                fragment_id, roles["owner"], roles["source"], roles["target"], roles.get("trigger"), tuple(effects)
            )

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if m := _METAREQ_RE.match(stripped):
            close()
            rule, fragment = m.group(1), None
            if rule in rules:
                raise KBSyntaxError(f"duplicate metareq id {rule!r}", line_no)
            rules[rule] = (line_no, m.group(2), ([], [], []))
            continue
        if m := _FRAGMENT_RE.match(stripped):
            close()
            rule, fragment = None, (line_no, m.group(1), {}, [])
            if m.group(1) in fragments:
                raise KBSyntaxError(f"duplicate fragment id {m.group(1)!r}", line_no)
            continue
        if m := _CLAUSE_RE.match(stripped):
            if rule is None:
                raise KBSyntaxError("clause template outside a metareq block", line_no)
            kind, body = m.groups()
            section = rules[rule][2][SECTIONS.index(kind)]
            col = raw.index('"') + 2
            section.append(_parse_template(kind, body, line_no, col))
            if (size := sum(len(t.items) for t in section)) > SIZE_LIMIT:
                raise KBSyntaxError(f"{kind} section has {size} items, more than {SIZE_LIMIT}", line_no, col)
            continue
        if fragment is None:
            raise KBSyntaxError(f"unrecognized line {stripped!r}", line_no)
        _read_fragment_line(raw, line_no, *fragment[2:])
    close()

    metareqs: list[MetaReq] = []
    for rule_id, (line, fragment_id, sections) in rules.items():
        if fragment_id not in fragments:
            raise UnknownFragment(f"metareq {rule_id!r} maps to undefined fragment {fragment_id!r}", line)
        metareq = MetaReq(rule_id, *map(tuple, sections), fragments[fragment_id])
        declared: dict[str, Metaclass] = {}
        for template in metareq.given + metareq.when + metareq.then:
            for slot in template.items:
                if isinstance(slot, SlotPattern):
                    if slot.role in declared:
                        raise DuplicateRole(f"metareq {rule_id!r} declares role {slot.role!r} twice", line)
                    declared[slot.role] = slot.metaclass
        for role, expected in metareq.fragment.roles():
            actual = declared.get(role)
            if actual is None:
                raise UntypedRole(
                    f"fragment {fragment_id!r} uses role {role!r} that metareq {rule_id!r} never declares", line
                )
            if actual is not expected:
                raise UntypedRole(
                    f"fragment {fragment_id!r} needs role {role!r} as {expected.value}, "
                    f"but metareq {rule_id!r} declares it as {actual.value}",
                    line,
                )
        metareqs.append(metareq)
    return KnowledgeBase(tuple(metareqs), tuple(fragments.values()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _render_item(item: TemplateItem) -> str:
    if isinstance(item, SlotPattern):
        return f"<<{item.metaclass.value} as {item.role}>>"
    if isinstance(item, OptionalLiteral):
        return "(" + "|".join(item.words) + ")?"
    return item.word


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form; ``parse_kb`` of the result reproduces ``kb``."""
    lines: list[str] = []
    for metareq in kb.metareqs:
        if lines:
            lines.append("")
        lines.append(f"metareq {metareq.id} -> {metareq.fragment.id}:")
        for kind, templates in zip(SECTIONS, (metareq.given, metareq.when, metareq.then)):
            label = (kind + ":").ljust(6)
            for template in templates:
                body = " ".join(_render_item(i) for i in template.items)
                lines.append(f'  {label} "{body}"')
    for fragment in kb.fragments:
        if lines:
            lines.append("")
        lines.append(f"fragment {fragment.id}:")
        lines.append(
            f"  owner: {fragment.owner_role}   source: {fragment.source_role}   "
            f"target: {fragment.target_role}"
        )
        extras = []
        if fragment.trigger_role is not None:
            extras.append(f"trigger: {fragment.trigger_role}")
        for sig, tgt in fragment.effect_specs:
            extras.append(f"effect: {sig} -> {tgt}")
        if extras:
            lines.append("  " + "   ".join(extras))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shadowing analysis
# ---------------------------------------------------------------------------


def _template_subsumes(ta: ClauseTemplate, tb: ClauseTemplate, owner_a: str | None, owner_b: str | None) -> bool:
    """True when every clause fitting ``tb`` fits ``ta``: a walk over ``ta``'s
    items that keeps the set of positions in ``tb``'s items it can reach. A
    slot fits a slot of its metaclass if both or neither are their rule's
    owner role, as the owner's block scopes the state slots after it; that
    fails, conservatively, a pair whose state slots all precede both owners."""
    b_items = tb.items
    reached = {0}
    for a in ta.items:
        nxt = set(reached) if isinstance(a, OptionalLiteral) else set()
        for bi in reached:
            b = b_items[bi] if bi < len(b_items) else None
            if isinstance(a, OptionalLiteral):
                fits = (isinstance(b, Literal) and b.word in a.words) or (
                    isinstance(b, OptionalLiteral) and set(b.words) <= set(a.words)
                )
            elif isinstance(a, Literal):
                fits = isinstance(b, Literal) and a.word == b.word
            else:
                fits = isinstance(b, SlotPattern) and (a.metaclass, a.role == owner_a) == (b.metaclass, b.role == owner_b)
            if fits:
                nxt.add(bi + 1)
        reached = nxt
    return len(b_items) in reached


def shadowed_rules(kb: KnowledgeBase) -> list[tuple[MetaReq, MetaReq]]:
    """(higher, lower) pairs where the earlier rule, read as the matcher
    reads it (its :func:`join_templates` template), fits every requirement
    the later one fits, so the later rule can never win."""
    joined = [join_templates(zip(SECTIONS, (m.given, m.when, m.then))) for m in kb.metareqs]
    return [
        (high, low)
        for i, (high, ta) in enumerate(zip(kb.metareqs, joined))
        for low, tb in zip(kb.metareqs[i + 1 :], joined[i + 1 :])
        if _template_subsumes(ta, tb, high.fragment.owner_role, low.fragment.owner_role)
    ]


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------

#: Shipped translation rules. MR1 is the full receive-act-and-move pattern
#: (a block receives a signal; another block signals a third one and the
#: owner's machine changes state). MR2 drops the send effect, MR3 also drops
#: the trigger (plain completion from one state to another). Earlier rules
#: win when several fit.
DEFAULT_KB_TEXT = '''\
# Built-in translation rules.

metareq MR1 -> F1:
  given: "<<Block as context1>> in <<State as starting>>"
  when:  "<<Block as context2>> receives <<Signal as event>>"
  then:  "<<Block as context3>> <<Signal as operation>> (to)? <<Block as context4>>"
  then:  "goes in <<State as final>>"
fragment F1:
  owner: context1   source: starting   target: final
  trigger: event    effect: operation -> context4

metareq MR2 -> F2:
  given: "<<Block as context1>> in <<State as starting>>"
  when:  "<<Block as context2>> receives <<Signal as event>>"
  then:  "<<Block as context3>> goes in <<State as final>>"
fragment F2:
  owner: context1   source: starting   target: final
  trigger: event

metareq MR3 -> F3:
  given: "<<Block as context1>> in <<State as starting>>"
  then:  "<<Block as context2>> goes in <<State as final>>"
fragment F3:
  owner: context1   source: starting   target: final
'''


def default_kb() -> KnowledgeBase:
    """The built-in knowledge base (three metareqs, three fragments)."""
    return parse_kb(DEFAULT_KB_TEXT)
