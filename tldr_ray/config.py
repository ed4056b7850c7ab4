"""Engine configuration.

Mirrors the reference's knob bundle (``Bag`` fields + ``Set``,
/root/reference/tldr.go:47-89) with the same defaults
(/root/reference/tldr.go:47-56).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Callable, Optional
import json

DEFAULT_ALGORITHM = "pagerank"
DEFAULT_WEIGHING = "hamming"
DEFAULT_DAMPING = 0.85
DEFAULT_TOLERANCE = 0.0001
DEFAULT_THRESHOLD = 0.001
DEFAULT_MAX_CHARACTERS = 0
DEFAULT_SENTENCES_DISTANCE_THRESHOLD = 0.95


@dataclass
class SummarizeConfig:
    """All knobs of the per-conversation summarization kernel.

    The three ``custom_*`` fields are the reference's user-extension
    surface (/root/reference/tldr.go:97-107): plain Python callables.

    - ``word_tokenizer``: ``str -> list[str]`` (replaces the default
      whitespace-split + sanitize tokenizer)
    - ``custom_weighing``: ``(src_vector, dst_vector) -> float`` over
      dense binary int vectors (used when ``weighing == "custom"``)
    - ``custom_algorithm``: ``(edges) -> list[int]`` where ``edges`` is a
      list of ``(src, dst, weight)`` tuples; returns ranked vertex ids
      (used when ``algorithm == "custom"``)
    """

    max_characters: int = DEFAULT_MAX_CHARACTERS
    algorithm: str = DEFAULT_ALGORITHM          # "pagerank" | "centrality" | "custom"
    weighing: str = DEFAULT_WEIGHING            # "hamming" | "jaccard" | "custom"
    damping: float = DEFAULT_DAMPING
    tolerance: float = DEFAULT_TOLERANCE
    threshold: float = DEFAULT_THRESHOLD
    sentences_distance_threshold: float = DEFAULT_SENTENCES_DISTANCE_THRESHOLD

    word_tokenizer: Optional[Callable[[str], list]] = None
    custom_weighing: Optional[Callable] = None
    custom_algorithm: Optional[Callable] = None
    dictionary: Optional[dict] = None           # word -> 1-based position (tldr.go:93-95)

    def to_json(self) -> str:
        d = asdict(self)
        for k in ("word_tokenizer", "custom_weighing", "custom_algorithm"):
            d[k] = bool(d[k])
        d["dictionary"] = None if self.dictionary is None else len(self.dictionary)
        return json.dumps(d, indent=2, sort_keys=True)
