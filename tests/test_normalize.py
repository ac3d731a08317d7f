from __future__ import annotations

import unicodedata

from hypothesis import example, given, strategies as st

from modcomplete.normalize import (
    ARTICLES,
    clean_word,
    core_words,
    normalize_phrase,
    normalize_signal_phrase,
    stem_word,
)


def test_block_phrase_matches_camel_case_name():
    assert normalize_phrase("Braking Supervision") == "brakingsupervision"
    assert normalize_phrase("BrakingSupervision") == "brakingsupervision"


def test_punctuation_stripped():
    assert normalize_phrase("EmergencyStop()") == "emergencystop"


def test_articles_stripped():
    assert normalize_phrase("the Train") == "train"
    assert normalize_phrase(["a", "Train"]) == "train"


def test_signal_phrase_drops_trailing_stopword():
    forms = normalize_signal_phrase("Emergency Stop Message")
    assert "emergencystop" in forms
    assert "emergencystopmessage" in forms


def test_signal_phrase_stems_verb():
    assert "activate" in normalize_signal_phrase("activates")


def test_signal_phrase_fixpoint():
    assert "activate" in normalize_signal_phrase("Activate")


def test_stem_ladder_order():
    assert stem_word("applies") == "apply"
    assert stem_word("activates") == "activate"
    assert stem_word("stops") == "stop"
    assert stem_word("running") == "runn"
    assert stem_word("halted") == "halt"


def test_stem_never_empties():
    assert stem_word("s") == "s"
    assert stem_word("ing") == "ing"


def test_stopword_and_stem_combine():
    forms = normalize_signal_phrase("activates command")
    assert "activate" in forms


@given(st.lists(st.text(alphabet="abcdefgABCDEFG(),. ", min_size=0, max_size=8), max_size=6))
def test_normalize_is_idempotent_on_its_output(words):
    once = normalize_phrase(words)
    assert normalize_phrase([once] if once else []) == once


@given(st.lists(st.sampled_from(["the", "a", "an", "Gate", "Control", "Stop()"]), max_size=6))
def test_articles_never_survive(words):
    assert not (set(core_words(words)) & ARTICLES)


# Letters, combining marks and compatibility characters: the ligature fi,
# fullwidth T, superscript two, a Roman numeral, long s and the letters
# that casefolding decomposes.
WORD_CHARACTERS = st.characters() | st.sampled_from(
    "AZaz09\xc4\xdf\xfc\u0130\u0663\u2167\u00b2\u017f\u01f0\u0390\u1e96\ufb01\uff34"
    "\u0300\u0301\u0308\u030c\u0327\u0342\u0345.,;'()-_ \t\u2028"
)


def reference_clean_word(word: str) -> str:
    """NFKC, casefold, NFKC, then keep the letters and digits."""
    folded = unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", word).casefold())
    return "".join(ch for ch in folded if ch.isalnum())


@given(st.text(WORD_CHARACTERS))
@example("")
@example("Stop()")
@example("\u0130stanbul")
@example("\u0130")  # folds to "i" and a combining dot, which is not alphanumeric
@example("\u01f0")  # folds to "j" and a combining caron, which compose again
def test_clean_word_keeps_exactly_the_alphanumeric_characters(word):
    """Letters and digits of any script survive, in the normal form;
    punctuation, space and symbols go, and "" stays ""."""
    assert clean_word(word) == reference_clean_word(word)


@given(st.text(WORD_CHARACTERS))
def test_equivalent_spellings_clean_to_one_word(word):
    """Composed, decomposed and compatibility spellings of a word agree, and
    the normal form is a fixpoint."""
    cleaned = clean_word(word)
    for form in ("NFC", "NFD", "NFKC", "NFKD"):
        assert clean_word(unicodedata.normalize(form, word)) == cleaned
    assert clean_word(cleaned) == cleaned


def test_composed_and_decomposed_names_and_case_variants_agree():
    composed, decomposed = "Brems\u00fcberwachung", "Bremsu\u0308berwachung"
    assert normalize_phrase(decomposed) == normalize_phrase(composed) == "brems\u00fcberwachung"
    assert normalize_phrase("Stra\u00dfe") == normalize_phrase("STRASSE") == "strasse"
    assert normalize_phrase("\ufb01nal") == normalize_phrase("final")
