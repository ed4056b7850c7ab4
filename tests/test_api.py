"""API parity: the Summarizer surface mirrors the reference Bag
(bag_config_test.go semantics)."""

from pathlib import Path

import json

import pytest

from tldr_ray.api import Summarizer, new

REF = Path("/root/reference")


@pytest.fixture
def ref():
    """Reader for the reference corpus. The read happens in the test
    body, so without the corpus only the golden cases fail; the rest
    of the module still runs."""
    return lambda name: (REF / name).read_text()


def test_defaults_match_reference():
    s = new()
    c = s.config
    assert c.algorithm == "pagerank"
    assert c.weighing == "hamming"
    assert c.damping == 0.85
    assert c.tolerance == 0.0001
    assert c.threshold == 0.001
    assert c.max_characters == 0
    assert c.sentences_distance_threshold == 0.95


def test_set_round_trip():
    s = new()
    s.set(500, 0.9, 1e-5, 0.01, 0.8, "centrality", "jaccard")
    c = s.config
    assert (c.max_characters, c.damping, c.tolerance, c.threshold,
            c.sentences_distance_threshold, c.algorithm, c.weighing) == \
        (500, 0.9, 1e-5, 0.01, 0.8, "centrality", "jaccard")


def test_string_is_json():
    s = new()
    d = json.loads(s.string())
    assert d["algorithm"] == "pagerank"


def test_summarize_golden_via_api(ref):
    s = new()
    assert "\n\n".join(s.summarize(ref("sample.txt"), 3)) == \
        ref("result.txt").strip()


def test_invalid_names_fall_back_like_reference(ref):
    s = new()
    s.config.algorithm = "invalid"
    s.config.weighing = "invalid"
    assert "\n\n".join(s.summarize(ref("sample.txt"), 3)) == \
        ref("result.txt").strip()


def test_centrality_via_api(ref):
    s = new()
    s.set(0, 0.85, 1e-4, 1e-3, 0.95, "centrality", "hamming")
    assert "\n\n".join(s.summarize(ref("sample.txt"), 3)) == \
        ref("result_centrality.txt").strip()


def test_presplit_entry_point():
    s = new()
    s.original_sentences = [
        "Mary had a little lamb,",
        "it's fleece was white as snow,",
        "and everywhere that Mary went,",
        "that lamb was sure to go.",
    ]
    assert s.summarize("", 1) == ["it's fleece was white as snow,"]


def test_custom_hooks():
    s = new()
    s.set_custom_algorithm(lambda edges: [0])
    s.original_sentences = ["First sentence", "Second sentence"]
    assert s.summarize("", 1) == ["First sentence"]

    s2 = new()
    s2.set_custom_weighing(lambda a, b: 1.0)
    s2.original_sentences = ["First sentence", "Second sentence"]
    assert len(s2.summarize("", 1)) == 1

    s3 = new()
    s3.set_word_tokenizer(lambda sent: ["same", "tokens"])
    assert s3.summarize("A b c. D e f.", 1) == []


def test_injected_dictionary():
    s = new()
    s.set_dictionary({"alpha": 1, "beta": 2})
    out = s.summarize("Alpha is here. Beta is there. Gamma unknown now.", 1)
    assert len(out) == 1
