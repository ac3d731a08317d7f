"""Knowledge base of translation rules: requirement templates -> fragments.

A MetaReq is a set of clause templates mixing literal words with typed slots
written ``<<Metaclass as role>>``; its MetaFragment says how bound roles fill
one state-machine transition (owner, source, target, optional trigger,
optional send effects). The file format is line oriented::

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
spelled out: the matcher treats them as skippable everywhere, and a bare
article literal in a template is read as the optional article group.
MetaReq priority is file order (earlier wins).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ModcompleteError
from .gherkin import ClauseKind
from .model import Metaclass
from .normalize import ARTICLES

KEYWORD_WORDS = frozenset({"given", "when", "then", "and", "or"})


class KBSyntaxError(ModcompleteError):
    """Malformed knowledge-base document; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownFragment(ModcompleteError):
    """A metareq maps to a fragment id the document never defines."""


class UntypedRole(ModcompleteError):
    """A fragment uses a role no slot declares, or with the wrong type."""


class DuplicateRole(ModcompleteError):
    """The same role is declared by two slots of one metareq."""


@dataclass(frozen=True)
class Literal:
    word: str


@dataclass(frozen=True)
class OptionalLiteral:
    words: tuple[str, ...]


@dataclass(frozen=True)
class SlotPattern:
    metaclass: Metaclass
    role: str


TemplateItem = Literal | OptionalLiteral | SlotPattern


@dataclass(frozen=True)
class ClauseTemplate:
    kind: ClauseKind
    items: tuple[TemplateItem, ...]

    def slots(self) -> tuple[SlotPattern, ...]:
        return tuple(i for i in self.items if isinstance(i, SlotPattern))


@dataclass(frozen=True)
class MetaFragment:
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


@dataclass(frozen=True)
class MetaReq:
    id: str
    given: tuple[ClauseTemplate, ...]
    when: tuple[ClauseTemplate, ...]
    then: tuple[ClauseTemplate, ...]
    fragment: str

    def templates(self) -> tuple[ClauseTemplate, ...]:
        return self.given + self.when + self.then

    def slots(self) -> tuple[SlotPattern, ...]:
        return tuple(s for t in self.templates() for s in t.slots())

    def slot_types(self) -> dict[str, Metaclass]:
        return {s.role: s.metaclass for s in self.slots()}


@dataclass(frozen=True)
class KnowledgeBase:
    metareqs: tuple[MetaReq, ...] = ()
    fragments: tuple[MetaFragment, ...] = ()

    def fragment_by_id(self, fragment_id: str) -> MetaFragment:
        for f in self.fragments:
            if f.id == fragment_id:
                return f
        raise UnknownFragment(f"no fragment named {fragment_id!r}")

    def metareq_by_id(self, metareq_id: str) -> MetaReq:
        for m in self.metareqs:
            if m.id == metareq_id:
                return m
        raise KeyError(metareq_id)


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

_CLAUSE_KIND = {"given": ClauseKind.GIVEN, "when": ClauseKind.WHEN, "then": ClauseKind.THEN}


def _parse_template(kind: str, body: str, line_no: int, col0: int) -> ClauseTemplate:
    items: list[TemplateItem] = []
    pos = 0
    for m in _ITEM_RE.finditer(body):
        between = body[pos : m.start()]
        if between.strip():
            raise KBSyntaxError(f"unreadable template text {between.strip()!r}", line_no, col0 + pos)
        pos = m.end()
        col = col0 + m.start()
        if m.group(1) is not None:
            metaclass_name, role = m.group(1), m.group(2)
            try:
                metaclass = Metaclass(metaclass_name)
            except ValueError:
                raise KBSyntaxError(f"unknown metaclass {metaclass_name!r}", line_no, col) from None
            items.append(SlotPattern(metaclass, role))
        elif m.group(3) is not None:
            words = tuple(w.strip().lower() for w in m.group(3).split("|"))
            if not all(re.fullmatch(r"\w+", w) for w in words):
                raise KBSyntaxError(f"bad optional literal {m.group(0)!r}", line_no, col)
            if any(w in KEYWORD_WORDS for w in words):
                raise KBSyntaxError("keywords cannot appear inside templates", line_no, col)
            items.append(OptionalLiteral(words))
        else:
            word = m.group(4).lower()
            if not re.fullmatch(r"[\w]+", word):
                raise KBSyntaxError(f"bad literal {m.group(4)!r}", line_no, col)
            if word in KEYWORD_WORDS:
                raise KBSyntaxError("keywords cannot appear inside templates", line_no, col)
            if word in ARTICLES:
                # Articles are always skippable; read a bare article as the
                # optional article group so templates stay satisfiable.
                items.append(OptionalLiteral(tuple(sorted(ARTICLES))))
            else:
                items.append(Literal(word))
    if not any(isinstance(i, SlotPattern) for i in items):
        raise KBSyntaxError(f"{kind} template declares no slot", line_no, col0)
    return ClauseTemplate(_CLAUSE_KIND[kind], tuple(items))


def _parse_fragment_pairs(line: str, line_no: int) -> list[tuple[str, str, int]]:
    anchors = list(_FRAG_KEY_RE.finditer(line))
    if not anchors:
        raise KBSyntaxError(f"expected fragment key, got {line.strip()!r}", line_no)
    head = line[: anchors[0].start()]
    if head.strip():
        raise KBSyntaxError(f"unreadable fragment text {head.strip()!r}", line_no)
    pairs = []
    for i, anchor in enumerate(anchors):
        end = anchors[i + 1].start() if i + 1 < len(anchors) else len(line)
        value = line[anchor.end() : end].strip()
        if not value:
            raise KBSyntaxError(f"fragment key {anchor.group(1)!r} has no value", line_no, anchor.start() + 1)
        pairs.append((anchor.group(1), value, anchor.start() + 1))
    return pairs


@dataclass
class _FragmentDraft:
    id: str
    line: int
    fields: dict[str, str] = field(default_factory=dict)
    effects: list[tuple[str, str]] = field(default_factory=list)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and validate a knowledge-base document.

    Raises:
        KBSyntaxError: malformed line, template or duplicate id.
        UnknownFragment: a metareq maps to an undefined fragment.
        UntypedRole: a fragment role is undeclared or wrongly typed.
        DuplicateRole: a role is declared twice within one metareq.
    """
    metareq_drafts: list[dict] = []
    fragment_drafts: list[_FragmentDraft] = []
    current: dict | None = None
    current_fragment: _FragmentDraft | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if m := _METAREQ_RE.match(stripped):
            current_fragment = None
            current = {
                "id": m.group(1),
                "fragment": m.group(2),
                "line": line_no,
                "templates": {"given": [], "when": [], "then": []},
            }
            metareq_drafts.append(current)
            continue
        if m := _FRAGMENT_RE.match(stripped):
            current = None
            current_fragment = _FragmentDraft(id=m.group(1), line=line_no)
            fragment_drafts.append(current_fragment)
            continue
        if m := _CLAUSE_RE.match(stripped):
            if current is None:
                raise KBSyntaxError("clause template outside a metareq block", line_no)
            kind, body = m.group(1), m.group(2)
            col0 = raw.index('"') + 2
            current["templates"][kind].append(_parse_template(kind, body, line_no, col0))
            continue
        if current_fragment is not None:
            for key, value, col in _parse_fragment_pairs(raw, line_no):
                if key == "effect":
                    parts = [p.strip() for p in value.split("->")]
                    if len(parts) != 2 or not all(re.fullmatch(r"\w+", p) for p in parts):
                        raise KBSyntaxError(
                            f"effect must be 'signal_role -> block_role', got {value!r}", line_no, col
                        )
                    current_fragment.effects.append((parts[0], parts[1]))
                else:
                    if not re.fullmatch(r"\w+", value):
                        raise KBSyntaxError(f"bad role name {value!r}", line_no, col)
                    if key in current_fragment.fields:
                        raise KBSyntaxError(f"fragment key {key!r} given twice", line_no, col)
                    current_fragment.fields[key] = value
            continue
        raise KBSyntaxError(f"unrecognized line {stripped!r}", line_no)

    fragments: list[MetaFragment] = []
    seen_fragment_ids: set[str] = set()
    for draft in fragment_drafts:
        if draft.id in seen_fragment_ids:
            raise KBSyntaxError(f"duplicate fragment id {draft.id!r}", draft.line)
        seen_fragment_ids.add(draft.id)
        for required in ("owner", "source", "target"):
            if required not in draft.fields:
                raise KBSyntaxError(f"fragment {draft.id!r} lacks {required!r}", draft.line)
        fragments.append(
            MetaFragment(
                id=draft.id,
                owner_role=draft.fields["owner"],
                source_role=draft.fields["source"],
                target_role=draft.fields["target"],
                trigger_role=draft.fields.get("trigger"),
                effect_specs=tuple(draft.effects),
            )
        )

    metareqs: list[MetaReq] = []
    seen_ids: set[str] = set()
    for draft in metareq_drafts:
        if draft["id"] in seen_ids:
            raise KBSyntaxError(f"duplicate metareq id {draft['id']!r}", draft["line"])
        seen_ids.add(draft["id"])
        if not draft["templates"]["given"] or not draft["templates"]["then"]:
            raise KBSyntaxError(
                f"metareq {draft['id']!r} needs at least one given and one then template",
                draft["line"],
            )
        metareqs.append(
            MetaReq(
                id=draft["id"],
                given=tuple(draft["templates"]["given"]),
                when=tuple(draft["templates"]["when"]),
                then=tuple(draft["templates"]["then"]),
                fragment=draft["fragment"],
            )
        )

    kb = KnowledgeBase(metareqs=tuple(metareqs), fragments=tuple(fragments))
    _validate_kb(kb)
    return kb


def _validate_kb(kb: KnowledgeBase) -> None:
    fragment_ids = {f.id for f in kb.fragments}
    for metareq in kb.metareqs:
        if metareq.fragment not in fragment_ids:
            raise UnknownFragment(
                f"metareq {metareq.id!r} maps to undefined fragment {metareq.fragment!r}"
            )
        roles: set[str] = set()
        for slot in metareq.slots():
            if slot.role in roles:
                raise DuplicateRole(f"metareq {metareq.id!r} declares role {slot.role!r} twice")
            roles.add(slot.role)
        slot_types = metareq.slot_types()
        fragment = kb.fragment_by_id(metareq.fragment)
        for role, expected in fragment.roles():
            actual = slot_types.get(role)
            if actual is None:
                raise UntypedRole(
                    f"fragment {fragment.id!r} uses role {role!r} that metareq "
                    f"{metareq.id!r} never declares"
                )
            if actual is not expected:
                raise UntypedRole(
                    f"fragment {fragment.id!r} needs role {role!r} as {expected.value}, "
                    f"but metareq {metareq.id!r} declares it as {actual.value}"
                )


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
        lines.append(f"metareq {metareq.id} -> {metareq.fragment}:")
        for kind, templates in (("given", metareq.given), ("when", metareq.when), ("then", metareq.then)):
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


def _strip_article_optionals(items: tuple[TemplateItem, ...]) -> tuple[TemplateItem, ...]:
    return tuple(
        item
        for item in items
        if not (isinstance(item, OptionalLiteral) and set(item.words) <= ARTICLES)
    )


def _template_subsumes(ta: ClauseTemplate, tb: ClauseTemplate) -> bool:
    a_items = _strip_article_optionals(ta.items)
    b_items = _strip_article_optionals(tb.items)

    def rec(ai: int, bi: int) -> bool:
        if ai == len(a_items):
            return bi == len(b_items)
        a = a_items[ai]
        b = b_items[bi] if bi < len(b_items) else None
        if isinstance(a, OptionalLiteral):
            if rec(ai + 1, bi):
                return True
            if isinstance(b, Literal) and b.word in a.words and rec(ai + 1, bi + 1):
                return True
            if isinstance(b, OptionalLiteral) and set(b.words) <= set(a.words) and rec(ai + 1, bi + 1):
                return True
            return False
        if b is None:
            return False
        if isinstance(a, Literal):
            return isinstance(b, Literal) and a.word == b.word and rec(ai + 1, bi + 1)
        return (
            isinstance(b, SlotPattern) and a.metaclass is b.metaclass and rec(ai + 1, bi + 1)
        )

    return rec(0, 0)


def _metareq_subsumes(a: MetaReq, b: MetaReq) -> bool:
    """True when every requirement matching b's templates also matches a's
    (syntactic check; a shadows b because a has higher priority)."""
    for sa, sb in ((a.given, b.given), (a.when, b.when), (a.then, b.then)):
        if len(sa) != len(sb):
            return False
        if not all(_template_subsumes(ta, tb) for ta, tb in zip(sa, sb)):
            return False
    return True


def shadowed_rules(kb: KnowledgeBase) -> list[tuple[MetaReq, MetaReq]]:
    """(higher, lower) pairs where the earlier rule fits every requirement
    the later one fits, so the later rule can never win."""
    return [
        (high, low)
        for i, high in enumerate(kb.metareqs)
        for low in kb.metareqs[i + 1 :]
        if _metareq_subsumes(high, low)
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
