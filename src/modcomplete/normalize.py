"""Phrase normalization for matching requirement text against model elements.

Matching is deliberately rigid: a phrase refers to a model element only when
their normal forms coincide. The normal form is casefolded, article-free,
punctuation-free and space-free, so camel-cased element names and spaced
prose spellings collapse to the same string ("BrakingSupervision" and
"Braking Supervision" both normalize to "brakingsupervision"). Words that
are not ASCII are compared in Unicode normalization form NFKC, so composed
and decomposed spellings of one name agree.

Signal mentions get a slightly wider net: trailing filler nouns such as
"Message" are droppable and the last word may be de-inflected by a small
suffix ladder, so "an Emergency Stop Message" reaches the signal
EmergencyStop and the verb "activates" reaches Activate.
"""

from typing import Sequence

ARTICLES = frozenset({"a", "an", "the"})

#: Filler nouns that may trail a signal mention without changing its referent.
SIGNAL_STOPWORDS = frozenset({"message", "signal", "command", "event"})

#: Suffix ladder for de-inflecting the last word of a signal mention.
#: First applicable rule wins; a rule never empties the word.
STEM_RULES: tuple[tuple[str, str], ...] = (
    ("ies", "y"),
    ("es", "e"),
    ("s", ""),
    ("ing", ""),
    ("ed", ""),
)

WordSpan = Sequence[str] | str


def fold_word(word: str) -> str:
    """A word's case-free form, in which keywords, template literals and
    names are compared. A word that is not ASCII is put in NFKC, casefolded
    and put in NFKC again (casefolding decomposes some letters, such as
    U+01F0), so every spelling of it that is canonically or compatibility
    equivalent gives one form. An ASCII word is only lowercased.

    >>> fold_word("U\u0308BER") == fold_word("\u00fcber") == "\u00fcber"
    True
    """
    if word.isascii():
        return word.lower()
    from unicodedata import normalize

    return normalize("NFKC", normalize("NFKC", word).casefold())


def clean_word(word: str) -> str:
    """``fold_word`` with every non-alphanumeric character dropped."""
    low = fold_word(word)
    if low.isalnum():  # nothing to drop, as for almost every word
        return low
    return "".join(ch for ch in low if ch.isalnum())


def split_words(phrase: WordSpan) -> list[str]:
    """Return the raw word list of a phrase given as string or sequence."""
    if isinstance(phrase, str):
        return phrase.split()
    return list(phrase)


def core_words(phrase: WordSpan) -> list[str]:
    """Cleaned words of a phrase with articles and empty residues dropped."""
    out = []
    for word in split_words(phrase):
        cleaned = clean_word(word)
        if cleaned and cleaned not in ARTICLES:
            out.append(cleaned)
    return out


def normalize_phrase(phrase: WordSpan) -> str:
    """Normal form of a phrase: cleaned words joined without spaces.

    >>> normalize_phrase("the Braking Supervision")
    'brakingsupervision'
    >>> normalize_phrase("EmergencyStop()")
    'emergencystop'
    """
    return "".join(core_words(phrase))


def stem_word(word: str) -> str:
    """Apply the first applicable suffix rule, never emptying the word."""
    for suffix, repl in STEM_RULES:
        if word.endswith(suffix):
            candidate = word[: len(word) - len(suffix)] + repl
            if candidate:
                return candidate
    return word


def normalize_signal_phrase(phrase: WordSpan) -> frozenset[str]:
    """All normal forms under which a phrase may name a Signal.

    The set contains the plain normal form plus variants with trailing
    stopwords removed and with the last word stemmed, and their combination:

    >>> sorted(normalize_signal_phrase("an Emergency Stop Message"))
    ['emergencystop', 'emergencystopmessage']
    >>> "activate" in normalize_signal_phrase("activates")
    True
    """
    base = core_words(phrase)
    stripped = list(base)
    while stripped and stripped[-1] in SIGNAL_STOPWORDS:
        stripped.pop()
    variants: set[str] = set()
    for words in (base, stripped):
        if words:
            variants.add("".join(words))
            variants.add("".join(words[:-1]) + stem_word(words[-1]))
    return frozenset(variants)

