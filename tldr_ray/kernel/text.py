"""Text primitives: sentence splitting, word sanitization, dictionary.

Reproduces, in order:
- sentence tokenizer   — /root/reference/util.go:16-34 (regex util.go:13)
- word sanitizer       — /root/reference/util.go:223-228 (regex util.go:12)
- default word tokenizer — /root/reference/tldr.go:58-64
- dictionary builder   — /root/reference/tldr.go:374-403

Go regexp is RE2: ``\\s`` is ASCII ``[\\t\\n\\f\\r ]`` and ``\\d`` is ASCII
``[0-9]``, while ``\\p{L}`` is Unicode letters and ``unicode.IsDigit`` is
Unicode Nd — the classes below are chosen to match those semantics
exactly (quirk Q5 in SURVEY.md §2.5: the sanitizer and the dictionary
cleaner deliberately disagree; both are reproduced).
"""

from __future__ import annotations

from functools import lru_cache as _lru_cache

import regex as _re

# util.go:13 — `([\.\?\!])(?:\s|$)`; RE2 \s == [\t\n\f\r ].
_SENTENCE_RE = _re.compile(r"([.?!])(?:[\t\n\f\r ]|$)")

# util.go:12 — `([^\p{L}\d]{2,}|[^\p{L}\d_'-])`; RE2 \d == [0-9].
_SANITIZE_RE = _re.compile(r"[^\p{L}0-9]{2,}|[^\p{L}0-9_'\-]")

# tldr.go:381-390 dictionary cleaner, decomposed into two passes (see
# build_dictionary for the equivalence argument).
_DICT_DROP_RE = _re.compile(r"[^\p{L}\p{Nd}\s\-]+")
_DICT_DASH_RE = _re.compile(r"(?<![\p{L}\p{Nd}-])-+")


def tokenize_sentences(text: str) -> list[str]:
    """Split text into sentences ending with ``[.?!]`` + whitespace/EOT.

    Text after the last terminator is silently dropped (quirk Q1,
    util.go:26-31 walks only regex matches, no trailing flush).
    """
    text = text.strip()
    tokens: list[str] = []
    pos = 0
    for m in _SENTENCE_RE.finditer(text):
        tokens.append(text[pos : m.start() + 1].strip())
        pos = m.end()
    return tokens


def pseudo_sentences(text: str, words: "int | None") -> "list[str] | None":
    """Chunks of ``words`` words for a text in which ``tokenize_sentences``
    finds no sentence (fed through the reference's pre-split entry point,
    O28, reference tldr.go:116,354-359); None when ``words`` is unset
    or the text has a sentence."""
    if words and not tokenize_sentences(text):
        ws = text.split()
        return [" ".join(ws[j : j + words]) for j in range(0, len(ws), words)]
    return None


def sanitize_word(word: str) -> str:
    """Lowercase + strip runs of >=2 non-alnum or single non-``[L 0-9 _'-]``.

    util.go:223-228. May return "" for punctuation-only words; the
    reference keeps such empty tokens in the bag (they never hit the
    dictionary, tldr.go:343). Pure function; word frequency is Zipfian,
    so a per-process cache turns most of the regex work into dict hits.
    """
    return _sanitize_cached(word)


@_lru_cache(maxsize=65536)
def _sanitize_cached(word: str) -> str:
    return _SANITIZE_RE.sub("", word.lower())


def default_word_tokenizer(sentence: str) -> list[str]:
    """Whitespace split + per-word sanitize (tldr.go:58-64)."""
    return [sanitize_word(w) for w in sentence.split()]


def _clean_for_dictionary(text: str) -> str:
    """The rune-map cleaner of tldr.go:378-390.

    Semantics of the Go ``strings.Map``: keep letters (Unicode L),
    digits (Unicode Nd via ``unicode.IsDigit``) and whitespace; delete
    every other rune EXCEPT ``-``, which is kept iff the most recent
    *kept letter/digit/space* before it is a letter or digit (``prev``
    is only updated by the keep-branch, so deleted runes and kept ``-``
    are transparent — "a!-b" -> "a-b", "a--b" -> "a--b", " -b" -> " b").

    Two-pass equivalent: (1) delete everything outside
    ``[\\p{L}\\p{Nd}\\s-]``; (2) in the result, delete every ``-`` run not
    immediately preceded by a letter/digit. A run preceded by a
    letter/digit is kept whole, matching the transparent-``prev`` rule.
    """
    text = _DICT_DROP_RE.sub("", text.lower())
    return _DICT_DASH_RE.sub("", text)


def build_dictionary(text: str) -> dict[str, int]:
    """word -> 1-based position in first-appearance order (tldr.go:374-403)."""
    words = _clean_for_dictionary(text).split()
    dictionary: dict[str, int] = {}
    i = 1
    for w in words:
        if w not in dictionary:
            dictionary[w] = i
            i += 1
    return dictionary
