"""Synthetic corpus generator tests."""

import numpy as np
import pytest

from repro.datasets import (
    CANCERKG,
    COVIDKG,
    PROFILES,
    CorpusGenerator,
    WEBTABLES,
    corpus_stats,
    load_dataset,
)
from repro.datasets.schemas import DOMAIN_TOPICS, Concept
from repro.tables.values import GaussianValue, NumberValue, RangeValue, parse_value


class TestConcept:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_entity_concept_stamps_type(self):
        c = Concept("drug", "entity", "drug", ("ramucirumab", "cetuximab"))
        text, entity = c.generate(self.rng)
        assert text in ("ramucirumab", "cetuximab")
        assert entity == "drug"

    def test_number_concept(self):
        c = Concept("dose", "number", units=("mg",), low=5, high=10)
        text, entity = c.generate(self.rng)
        assert entity is None
        assert isinstance(parse_value(text), NumberValue)
        assert "mg" in text

    def test_range_concept(self):
        c = Concept("age", "range", low=20, high=40, decimals=0)
        text, _ = c.generate(self.rng)
        assert isinstance(parse_value(text), RangeValue)

    def test_gaussian_concept(self):
        c = Concept("bmi", "gaussian", low=18, high=30)
        text, _ = c.generate(self.rng)
        assert isinstance(parse_value(text), GaussianValue)

    def test_percent_concept(self):
        c = Concept("rate", "percent", low=1, high=99)
        text, _ = c.generate(self.rng)
        assert "%" in text

    def test_year_concept(self):
        c = Concept("founded", "year")
        text, _ = c.generate(self.rng)
        assert 1990 <= int(text) <= 2023

    def test_synonym_headers(self):
        c = Concept("population", synonyms=("inhabitants",))
        labels = {c.header_label(self.rng, noise=1.0) for _ in range(5)}
        assert labels == {"inhabitants"}
        assert c.header_label(self.rng, noise=0.0) == "population"

    def test_is_numeric(self):
        assert Concept("x", "number").is_numeric
        assert Concept("x", "range").is_numeric
        assert not Concept("x", "entity").is_numeric


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = CorpusGenerator(WEBTABLES, seed=7).generate()
        b = CorpusGenerator(WEBTABLES, seed=7).generate()
        assert len(a) == len(b)
        assert all(x.caption == y.caption for x, y in zip(a, b))
        assert all(x.data[0][0].text == y.data[0][0].text for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = CorpusGenerator(WEBTABLES, seed=1).generate()
        b = CorpusGenerator(WEBTABLES, seed=2).generate()
        assert any(x.caption != y.caption for x, y in zip(a, b))

    def test_gold_labels_present(self):
        tables = CorpusGenerator(CANCERKG, seed=0).generate()
        for t in tables:
            assert t.topic in {s.topic for s in CANCERKG.topics}
            for j in range(t.n_cols):
                assert t.column_concept(j)

    def test_row_bounds_respected(self):
        tables = CorpusGenerator(WEBTABLES, seed=0).generate()
        lo, hi = WEBTABLES.rows
        assert all(lo <= t.n_rows <= hi for t in tables)

    def test_scaled_profile(self):
        tables = load_dataset("cius", n_tables=10, seed=0)
        assert len(tables) == 10


class TestProfiles:
    def test_all_five_datasets_load(self):
        for name in PROFILES:
            tables = load_dataset(name, n_tables=12, seed=0)
            assert len(tables) == 12
            assert all(t.source == name for t in tables)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("imaginary")

    def test_covidkg_structural_profile(self):
        """CovidKG-like: mostly non-relational, some nesting, VMD."""
        tables = load_dataset("covidkg", n_tables=40, seed=11)
        stats = corpus_stats(tables)
        assert stats.frac_non_relational > 0.4   # paper: over 40%
        assert stats.n_with_vmd > 0
        assert stats.n_hierarchical > 0

    def test_webtables_mostly_relational(self):
        tables = load_dataset("webtables", n_tables=40, seed=11)
        stats = corpus_stats(tables)
        assert stats.frac_non_relational < 0.5

    def test_saus_cius_larger_tables(self):
        saus = corpus_stats(load_dataset("saus", n_tables=20, seed=0))
        web = corpus_stats(load_dataset("webtables", n_tables=20, seed=0))
        assert saus.avg_rows > web.avg_rows

    def test_value_shapes_present_in_cancerkg(self):
        tables = load_dataset("cancerkg", n_tables=30, seed=2)
        cells = [c for t in tables for c in t.all_cells()]
        assert any(isinstance(c.value, RangeValue) for c in cells)
        assert any(isinstance(c.value, GaussianValue) for c in cells)
        assert any(c.unit_category == "time" for c in cells)

    def test_entity_catalog_diversity(self):
        tables = load_dataset("cancerkg", n_tables=30, seed=2)
        stats = corpus_stats(tables)
        assert len(stats.entity_counts) >= 3

    def test_stats_aggregation(self):
        tables = load_dataset("webtables", n_tables=10, seed=0)
        stats = corpus_stats(tables)
        assert stats.n_tables == 10
        assert stats.avg_cols == pytest.approx(stats.n_columns / 10)

    def test_domain_topics_cover_paper_list(self):
        topics = {s.topic for s in DOMAIN_TOPICS["webtables"]}
        for expected in ("magazines", "cities", "universities",
                         "soccer clubs", "baseball players", "regions",
                         "music genres"):
            assert expected in topics
