"""Seeded workload generator with an independent reference outcome.

Each workload is a model document, a ``.feature`` corpus and a knowledge-base
file, plus, for every requirement, the outcome the pipeline must report
(added, duplicate, conflict, unmatched or ambiguous) and the transitions it
must generate. The generator knows the intended binding of every sentence
because it renders the sentence from that binding; it never calls the
matcher. Conflicts and duplicates are derived here by grouping the intended
transitions on (owner, source, trigger), together with the transitions the
input model already holds.

Vocabulary rules that keep every sentence's meaning unique:

* block names are two words (adjective + noun) or three words joined by
  ``And``; no word sequence inside one name is the name of another element,
  so no shorter span can resolve;
* block, state, signal and filler words come from disjoint pools;
* operation verbs de-inflect to their signal by the ``s``/``es``/``ies`` rule;
* the only deliberate ambiguity is the signal pair ``Stop``/``Stops``: the
  mention "Stops" reaches both, the mention "Stop" reaches only ``Stop``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

# The three built-in translation rules, written to the workload's KB file so
# the expectations below and the rules the program runs with are one text.
KB_TEXT = '''\
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

#: Role -> transition field, per rule, mirroring the fragments above.
FRAGMENT_ROLES = {
    "MR1": ("context1", "starting", "final", "event", ("operation", "context4")),
    "MR2": ("context1", "starting", "final", "event", None),
    "MR3": ("context1", "starting", "final", None, None),
}

BLOCK_ADJ = ["North", "South", "East", "West", "Upper", "Lower", "Inner", "Outer",
             "Main", "Spare", "Front", "Rear", "Left", "Right", "Primary", "Backup",
             "Central", "Remote", "Local", "Auxiliary"]
BLOCK_NOUN = ["Pump", "Valve", "Gate", "Motor", "Sensor", "Heater", "Cooler", "Fan",
              "Door", "Lamp", "Relay", "Switch", "Boiler", "Turbine", "Tank", "Brake"]
# Three-word names joined by "And": the parser splits them at the keyword and
# the matcher has to re-merge the clauses.
AND_BLOCKS = ["CommandAndControl", "PowerAndWater", "TrackAndPoint",
              "DockAndHarbour", "FuelAndOxygen", "RadarAndSonar"]

# Operation signals with the third-person form used in Then clauses.
VERBS = {
    "Start": "starts", "Halt": "halts", "Open": "opens", "Close": "closes",
    "Reset": "resets", "Lock": "locks", "Unlock": "unlocks", "Arm": "arms",
    "Disarm": "disarms", "Release": "releases", "Apply": "applies",
    "Notify": "notifies", "Enable": "enables", "Disable": "disables",
    "Ignite": "ignites", "Purge": "purges", "Vent": "vents", "Sample": "samples",
    "Calibrate": "calibrates", "Activate": "activates", "Deactivate": "deactivates",
    "Suspend": "suspends", "Resume": "resumes", "Confirm": "confirms",
    "Cancel": "cancels", "Report": "reports", "Query": "queries",
    "Acknowledge": "acknowledges", "Retract": "retracts", "Extend": "extends",
}
EVENT_ADJ = ["High", "Low", "Rapid", "Slow", "Early", "Late", "Hard", "Soft"]
EVENT_NOUN = ["Pressure", "Voltage", "Current", "Level", "Flow", "Speed", "Torque",
              "Temperature", "Humidity", "Vibration", "Load", "Frequency"]
AMBIGUOUS_PAIR = ("Stop", "Stops")
STATE_WORDS = ["Idle", "Running", "Stopped", "Standby", "Ready", "Faulted", "Parked",
               "Warming", "Cooling", "Draining", "Filling", "Holding"]
FILLERS = ["message", "signal", "command", "event"]
# Words no element uses, for requirements that must not match.
UNKNOWN_BLOCKS = ["Quantum Flux", "Zephyr Array", "Nimbus Core"]
UNKNOWN_STATES = ["hovering", "drifting", "orbiting"]

OUTCOMES = ("added", "duplicate", "conflict", "unmatched", "ambiguous")

Effect = tuple[str, str]
# (owner, source, target, trigger, effects): a transition by content.
Trans = tuple[str, str, str, "str | None", tuple[Effect, ...]]


@dataclass
class Req:
    rid: str
    text: str
    kind: str  # "match", "unmatched" or "ambiguous"
    rule: str | None = None
    transitions: tuple[Trans, ...] = ()
    alternatives: int = 0
    outcome: str = ""  # filled by reference_outcomes
    conflict_keys: frozenset = frozenset()


@dataclass
class Workload:
    name: str
    command: str  # "complete", "complete-diagrams" or "check"
    model_doc: dict
    reqs: list[Req]
    existing: list[Trans] = field(default_factory=list)

    def model_text(self) -> str:
        return json.dumps(self.model_doc, indent=1) + "\n"

    def feature_text(self) -> str:
        lines = [f"Feature: {self.name}"]
        for req in self.reqs:
            lines += [f"Scenario: {req.rid}", f"@id: {req.rid}", req.text]
        return "\n".join(lines) + "\n"

    def provenance_ids(self) -> set[str]:
        """Requirement ids recorded on the input model's transitions."""
        return {rid for block in self.model_doc["blocks"]
                for t in block["state_machine"]["transitions"] for rid in t["provenance"]}

    def outcome_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(OUTCOMES, 0)
        for req in self.reqs:
            counts[req.outcome] += 1
        return counts


def words_of(name: str) -> list[str]:
    """Display words of a camel-case name; ``And`` is written lowercase."""
    parts = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name).split()
    return ["and" if p == "And" else p for p in parts]


def transition_key(t: Trans) -> tuple:
    return t[0], t[1], t[3]


def reference_outcomes(reqs: list[Req], existing: list[Trans]) -> None:
    """Set each requirement's expected outcome from its intended transitions.

    Candidates that share (owner, source, trigger) but differ in target or
    effects, with each other or with a transition already in the model,
    conflict; a requirement with any conflicted candidate is withheld whole.
    The rest merge in corpus order: a requirement is added when at least one
    of its transitions is new, and a duplicate when all already exist.
    """
    sides: dict[tuple, set] = {}
    for t in existing:
        sides.setdefault(transition_key(t), set()).add((t[2], t[4]))
    candidate_keys = set()
    for req in reqs:
        for t in req.transitions:
            sides.setdefault(transition_key(t), set()).add((t[2], t[4]))
            candidate_keys.add(transition_key(t))
    conflicted = {k for k in candidate_keys if len(sides[k]) > 1}
    present = set(existing)
    for req in reqs:
        if req.kind != "match":
            req.outcome = req.kind
            continue
        req.conflict_keys = frozenset(transition_key(t) for t in req.transitions) & conflicted
        if req.conflict_keys:
            req.outcome = "conflict"
            continue
        new = [t for t in req.transitions if t not in present]
        present.update(req.transitions)
        req.outcome = "added" if new else "duplicate"


class _Builder:
    """Model vocabulary plus sentence rendering for one seeded workload."""

    def __init__(self, rng: random.Random, blocks: dict[str, list[str]], signals: list[str],
                 article_stack: int = 1) -> None:
        self.rng = rng
        self.blocks = blocks  # name -> state names
        self.names = sorted(blocks)
        self.verbs = [s for s in signals if s in VERBS]
        # One-word and two-word trigger signals, drawn in equal shares.
        self.trigger_pools = [self.verbs, [s for s in signals if s not in VERBS and s not in AMBIGUOUS_PAIR]]
        self.article_stack = article_stack
        self.used_keys: set[tuple] = set()
        self.reqs: list[Req] = []
        self.bags: dict[str, list] = {}

    def pick(self, category: str, options) -> object:
        """Draw without replacement from a refilled bag per category.

        Every option of a category is used equally often across a corpus,
        so the cost of matching it barely depends on the seed.
        """
        bag = self.bags.get(category)
        if not bag:
            bag = self.bags[category] = list(options)
            self.rng.shuffle(bag)
        return bag.pop()

    # -- rendering ---------------------------------------------------------

    def article(self) -> str:
        count = self.pick("stack", range(1, self.article_stack + 1))
        picks = [self.pick("article", ["the", "a", "the", ""]) for _ in range(count)]
        return " ".join(p for p in picks if p)

    def block(self, name: str) -> str:
        return " ".join(filter(None, [self.article(), *words_of(name)]))

    def state(self, name: str) -> str:
        return " ".join(words_of(name)).lower()

    def trigger(self, signal: str) -> str:
        filler = self.pick("filler", FILLERS + ["", ""])
        return " ".join(filter(None, [self.article(), *words_of(signal), filler]))

    def receiver(self, plain: bool = False) -> str:
        if plain:
            return self.block(self.pick("plain-receiver", [b for b in self.names if "And" not in b]))
        return self.block(self.pick("receiver", self.names))

    def sentence(self, rule: str, owner: str, src: str, dst: str, triggers: list[str],
                 effect: Effect | None, elliptical: list[bool] | None = None,
                 when_verb: str = "receives") -> str:
        given = f"Given {self.block(owner)} in {self.state(src)}"
        when = ""
        if triggers:
            elliptical = elliptical or [False] * len(triggers)
            alts = []
            for i, (sig, short) in enumerate(zip(triggers, elliptical)):
                if i and short:
                    alts.append(self.trigger(sig))
                else:
                    alts.append(f"{self.receiver(plain=len(triggers) > 1)} {when_verb} {self.trigger(sig)}")
            when = ", When " + " or ".join(alts)
        if rule == "MR1":
            assert effect is not None
            to = self.pick("to", ["to ", ""])
            then = (f"Then {self.receiver()} {VERBS[effect[0]]} {to}{self.block(effect[1])} "
                    f"and goes in {self.state(dst)}")
        else:
            then = f"Then {self.receiver()} goes in {self.state(dst)}"
        return f"{given}{when}, {then}."

    # -- requirement kinds -------------------------------------------------

    def add(self, text: str, kind: str, rule: str | None = None,
            transitions: tuple[Trans, ...] = (), alternatives: int = 0) -> Req:
        req = Req(f"R{len(self.reqs) + 1:04d}", text, kind, rule, transitions, alternatives)
        self.reqs.append(req)
        return req

    def fresh_key(self, with_trigger: bool, owner: str | None = None, source: str | None = None) -> tuple:
        """An (owner, source, trigger) no other transition uses yet."""
        owner = owner or self.pick("owner", self.names)
        pool = self.pick("trigger-kind", self.trigger_pools) if with_trigger else [None]
        for _ in range(100):
            key = (owner, source or self.rng.choice(self.blocks[owner]), self.rng.choice(pool))
            if key not in self.used_keys:
                break
        else:  # nearly exhausted: choose among the keys still free
            triggers = [t for p in self.trigger_pools for t in p] if with_trigger else [None]
            key = self.rng.choice([(owner, s, t) for s in ([source] if source else self.blocks[owner])
                                   for t in triggers if (owner, s, t) not in self.used_keys])
        self.used_keys.add(key)
        return key

    def target(self, owner: str) -> str:
        return self.rng.choice(self.blocks[owner])

    def effect(self) -> Effect:
        return self.rng.choice(self.verbs), self.pick("effect-block", self.names)

    def render(self, t: Trans, **kw) -> str:
        owner, src, dst, trig, effects = t
        rule = "MR1" if effects else ("MR2" if trig else "MR3")
        return self.sentence(rule, owner, src, dst, [trig] if trig else [],
                             effects[0] if effects else None, **kw)

    def new_match(self, rule: str) -> Req:
        owner, src, trig = self.fresh_key(rule != "MR3")
        effects = (self.effect(),) if rule == "MR1" else ()
        t = (owner, src, self.target(owner), trig, effects)
        return self.add(self.render(t), "match", rule, (t,))

    def disjunctive(self, rule: str, n_alts: int) -> Req:
        while True:
            owner, src, first = self.fresh_key(True)
            free = [t for pool in self.trigger_pools for t in pool if (owner, src, t) not in self.used_keys]
            if len(free) >= n_alts - 1:
                break
        triggers = [first] + [self.fresh_key(True, owner, src)[2] for _ in range(n_alts - 1)]
        dst = self.target(owner)
        effects = (self.effect(),) if rule == "MR1" else ()
        elliptical = [False] + [self.pick("elliptical", [True, True, False]) for _ in triggers[1:]]
        text = self.sentence(rule, owner, src, dst, triggers, effects[0] if effects else None, elliptical)
        ts = tuple((owner, src, dst, trig, effects) for trig in triggers)
        return self.add(text, "match", rule, ts, alternatives=n_alts)

    def repeat(self, earlier: Req) -> Req:
        """Same transition as ``earlier`` in other words: a duplicate."""
        t = earlier.transitions[0]
        return self.add(self.render(t), "match", earlier.rule, (t,))

    def conflicting(self, earlier: Req) -> Req:
        """Same (owner, source, trigger) as ``earlier``, another target."""
        owner, src, dst, trig, effects = earlier.transitions[0]
        others = [s for s in self.blocks[owner] if s != dst]
        t = (owner, src, self.rng.choice(others), trig, effects)
        rule = "MR1" if effects else ("MR2" if trig else "MR3")
        return self.add(self.render(t), "match", rule, (t,))

    def unmatched(self, variant: int) -> Req:
        owner = self.pick("owner", self.names)
        src, dst = self.target(owner), self.target(owner)
        trig = self.rng.choice(self.verbs)
        if variant == 0:  # unknown verb in the When clause
            text = self.sentence("MR2", owner, src, dst, [trig], None, when_verb="presses")
        elif variant == 1:  # state the owner's machine does not have
            text = self.sentence("MR2", owner, self.rng.choice(UNKNOWN_STATES), dst, [trig], None)
        elif variant == 2:  # block the model does not have
            text = (f"Given the {self.rng.choice(UNKNOWN_BLOCKS)} in {self.state(src)}, "
                    f"Then {self.receiver()} goes in {self.state(dst)}.")
        else:  # When after Then: a parse error
            text = (f"Given {self.block(owner)} in {self.state(src)}, Then {self.receiver()} goes in "
                    f"{self.state(dst)}, When {self.receiver()} receives {self.trigger(trig)}.")
        return self.add(text, "unmatched")

    def ambiguous(self, elliptical: bool) -> Req:
        owner = self.pick("owner", self.names)
        src, dst = self.target(owner), self.target(owner)
        if elliptical:
            text = self.sentence("MR2", owner, src, dst, [self.rng.choice(self.verbs), "Stops"],
                                 None, [False, True])
        else:
            text = self.sentence("MR1", owner, src, dst, ["Stops"], self.effect())
        return self.add(text, "ambiguous")


def _signals(rng: random.Random, n_verbs: int, n_events: int) -> list[str]:
    events = [a + n for a in EVENT_ADJ for n in EVENT_NOUN]
    return sorted(rng.sample(list(VERBS), n_verbs) + rng.sample(events, n_events) + list(AMBIGUOUS_PAIR))


def _two_word_blocks(rng: random.Random, n: int) -> list[str]:
    return rng.sample([a + n for a in BLOCK_ADJ for n in BLOCK_NOUN], n)


def _model_doc(name: str, blocks: dict[str, list[str]], signals: list[str],
               existing: list[Trans] = ()) -> dict:
    by_owner: dict[str, list[dict]] = {}
    for owner, src, dst, trig, effects in existing:
        doc = {"source": src, "target": dst, "provenance": [f"LEGACY-{len(by_owner.get(owner, [])) + 1}-{owner}"]}
        if trig is not None:
            doc["trigger"] = trig
        if effects:
            doc["effects"] = [{"signal": s, "target_block": b} for s, b in effects]
        by_owner.setdefault(owner, []).append(doc)
    return {
        "version": "1",
        "name": name,
        "signals": [{"name": s} for s in signals],
        "blocks": [
            {"name": b, "state_machine": {"states": states, "transitions": by_owner.get(b, [])}}
            for b, states in blocks.items()
        ],
    }


def _mix(b: _Builder, n: int, shares: dict[str, float]) -> None:
    """Render ``n`` requirements in a fixed mix of kinds.

    Kinds, and the rule or variant within a kind, follow a fixed cycle; the
    seed only picks names, states and wording. Each original is repeated or
    contradicted at most once, originals taken rule by rule in turn. So the
    outcome mix, and the matching work, is the same for every seed;
    ``_finish`` shuffles the corpus.
    """
    plan: list[str] = []
    for kind, share in shares.items():
        plan += [kind] * round(n * share)
    plan += ["MR1"] * (n - len(plan))
    by_rule: dict[str, list[Req]] = {}
    seen: dict[str, int] = {}
    for kind in plan:
        group = "or" if kind.startswith("or") else kind
        i = seen[group] = seen.get(group, -1) + 1
        if kind in ("MR1", "MR2", "MR3"):
            by_rule.setdefault(kind, []).append(b.new_match(kind))
        elif kind.startswith("or"):
            b.disjunctive(("MR1", "MR2")[i % 2], int(kind[2:]))
        elif kind == "unmatched":
            b.unmatched(i % 4)
        elif kind == "ambiguous":
            b.ambiguous(i % 2 == 0)
    queues = list(by_rule.values())
    originals = [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]
    for kind in plan:
        if kind in ("repeat", "conflict"):
            (b.repeat if kind == "repeat" else b.conflicting)(originals.pop(0))


def wide_model(seed: int, n_blocks: int = 250) -> Workload:
    """Hundreds of blocks and signals, three states each, short requirements."""
    rng = random.Random(f"wide-model:{seed}")
    blocks = {name: sorted(rng.sample(STATE_WORDS, 3)) for name in _two_word_blocks(rng, n_blocks)}
    # Signals grow with the blocks, so the sweep's model grows as a whole.
    signals = _signals(rng, min(len(VERBS), max(6, n_blocks // 8)), min(96, max(4, round(0.36 * n_blocks))))
    b = _Builder(rng, blocks, signals)
    _mix(b, 30, {"MR2": 0.25, "MR3": 0.1, "or2": 0.1, "repeat": 0.1,
                     "conflict": 0.1, "unmatched": 0.1, "ambiguous": 0.07})
    return _finish("wide-model", "complete", blocks, signals, b)


def clause_search(seed: int) -> Workload:
    """A small model whose names contain "and"; long, disjunctive requirements."""
    rng = random.Random(f"clause-search:{seed}")
    names = _two_word_blocks(rng, 4) + rng.sample(AND_BLOCKS, 4)
    blocks = {name: sorted(rng.sample(STATE_WORDS, 4)) for name in names}
    signals = _signals(rng, 6, 4)
    b = _Builder(rng, blocks, signals, article_stack=3)
    _mix(b, 60, {"MR2": 0.1, "MR3": 0.05, "or2": 0.15, "or3": 0.15, "or4": 0.15, "repeat": 0.08,
                     "conflict": 0.08, "unmatched": 0.08, "ambiguous": 0.06})
    return _finish("clause-search", "check", blocks, signals, b)


def dense_machines(seed: int) -> Workload:
    """A few blocks whose machines already hold thousands of transitions."""
    rng = random.Random(f"dense-machines:{seed}")
    states = [f"Phase{i:02d}" for i in range(1, 41)]
    blocks = {name: list(states) for name in _two_word_blocks(rng, 6)}
    signals = _signals(rng, len(VERBS), 40)
    b = _Builder(rng, blocks, signals)
    existing: list[Trans] = []
    for owner in blocks:
        for _ in range(600):
            owner_, src, trig = b.fresh_key(True, owner)
            effects = (b.effect(),) if b.pick("has-effect", [True, True, False, False, False]) else ()
            existing.append((owner_, src, b.target(owner), trig, effects))
    # About a third of the corpus repeats existing transitions and about a
    # tenth contradicts one of them; the rest is the usual mix.
    # Both groups hold transitions with an effect (MR1 sentences) and without
    # (MR2 sentences) in the proportion the model has, whatever the seed.
    n_reqs = 90
    n_dup, n_conf = n_reqs // 3, n_reqs // 10
    k = round(0.4 * n_dup)
    effect = rng.sample([t for t in existing if t[4]], k + round(0.4 * n_conf))
    plain = rng.sample([t for t in existing if not t[4]], n_dup + n_conf - len(effect))
    dups = effect[:k] + plain[:n_dup - k]
    conflicts = effect[k:] + plain[n_dup - k:]
    for t in dups:
        b.add(b.render(t), "match", "MR1" if t[4] else "MR2", (t,))
    for t in conflicts:
        owner, src, dst, trig, effects = t
        other = (owner, src, rng.choice([s for s in states if s != dst]), trig, effects)
        b.add(b.render(other), "match", "MR1" if effects else "MR2", (other,))
    _mix(b, n_reqs - n_dup - n_conf, {"MR2": 0.2, "MR3": 0.1, "or2": 0.1, "repeat": 0.1,
                                      "conflict": 0.1, "unmatched": 0.08, "ambiguous": 0.06})
    return _finish("dense-machines", "complete-diagrams", blocks, signals, b, existing)


def _finish(name: str, command: str, blocks: dict, signals: list[str], b: _Builder,
            existing: list[Trans] = ()) -> Workload:
    b.rng.shuffle(b.reqs)
    for i, req in enumerate(b.reqs, start=1):
        req.rid = f"R{i:04d}"
    reference_outcomes(b.reqs, list(existing))
    return Workload(name, command, _model_doc(name, blocks, signals, existing), b.reqs, list(existing))


WORKLOADS = {
    "wide-model": wide_model,
    "clause-search": clause_search,
    "dense-machines": dense_machines,
}
