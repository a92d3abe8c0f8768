"""Corpus generation, serialization, verbalization, and split tests."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from augqual.corpus import (
    GENERATOR_VERSION,
    IGNORE_INDEX,
    MAX_DIM,
    MAX_ROWS,
    CorruptionProfile,
    CorpusHeader,
    VerbalScheme,
    corpus_checksum,
    generate_corpus,
    generation_header,
    load_corpus,
    save_corpus,
    sentiment_class,
    serialize_corpus,
    train_eval_split,
    validate_corpus,
)
from augqual.util import ValidationError, sha256_hex
import oracles
from oracles import (
    Sample,
    block_values,
    corpus_from_samples,
    corpus_line,
    encode,
    feature_block,
    feature_checksum,
    samples_of,
)

CLEAN = CorruptionProfile(sigma_benign=0.0, p_swap=0.0, p_degrade=0.0,
                          p_label_noise=0.0)
DEFAULTISH = CorruptionProfile(sigma_benign=0.05, p_swap=0.2, p_degrade=0.2,
                               degrade_mask_rate=0.5, p_label_noise=0.2)


def _records(c):
    """Originals, augments and an id lookup, as per-sample records."""
    samples = samples_of(c)
    return ([s for s in samples if s.origin == "Original"],
            [s for s in samples if s.origin == "Augmented"],
            {s.id: s for s in samples})


def _sentiment_grid(k: int) -> np.ndarray:
    """Bin edges of k classes and of the 5-way scale, -0.0, their float
    neighbours inside [-1, 1], and random values."""
    edges = np.r_[np.linspace(-1.0, 1.0, k + 1), -0.6, -0.2, 0.2, 0.6, 0.0, -0.0]
    grid = np.r_[edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0),
                 np.random.default_rng(k).uniform(-1.0, 1.0, 500)]
    return grid[(grid >= -1.0) & (grid <= 1.0)]


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestPolarityAndBins:
    def test_polarity_signs(self):
        tokens = VerbalScheme().encode([0.5, -0.5, 0.0, -0.0, 1.0, -1.0])
        assert tokens[:, 0].tolist() == [1, 0, 1, 1, 1, 0]

    def test_polarity_rejects_out_of_range(self):
        for bad in (1.5, -1.01, np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="outside"):
                VerbalScheme().encode([0.5, bad])

    def test_binary_binning_matches_polarity_everywhere(self):
        y = np.linspace(-1.0, 1.0, 2001)
        assert sentiment_class(y, 2).tolist() == (y >= 0).tolist()

    def test_five_way_bin_edges(self):
        assert sentiment_class(-1.0, 5) == 0
        assert sentiment_class(-0.61, 5) == 0
        assert sentiment_class(-0.6, 5) == 1
        assert sentiment_class(0.0, 5) == 2
        assert sentiment_class(0.2, 5) == 3
        assert sentiment_class(0.6, 5) == 4
        assert sentiment_class(1.0, 5) == 4

    def test_array_binning_matches_scalar_oracle(self):
        for k in range(2, 9):
            y = _sentiment_grid(k)
            got = sentiment_class(y, k)
            assert got.dtype == np.intp
            assert got.tolist() == [oracles.sentiment_class(float(v), k) for v in y]


class TestVerbalScheme:
    def test_encode_examples(self):
        v = VerbalScheme()
        assert v.encode([0.5, -0.9, 0.0]).tolist() == [
            [1, 5, 7, IGNORE_INDEX], [0, 2, 7, IGNORE_INDEX], [1, 4, 7, IGNORE_INDEX]]

    def test_decode_bin_centers(self):
        v = VerbalScheme()
        assert v.decode([[1, 5, 7], [0, 2, 7], [1, 6, 7]]).tolist() == [0.4, -0.8, 0.8]

    def test_decode_neutral_bin_uses_sign_token(self):
        v = VerbalScheme()
        assert v.decode([[1, 4, 7], [0, 4, 7]]).tolist() == [0.1, -0.1]

    def test_decode_is_total_on_garbage_tokens(self):
        # out-of-table tokens clamp to the nearest class; never raises
        v = VerbalScheme()
        assert v.decode([[1, 0, 7], [0, 7, 7], [5, 4, 0]]).tolist() == [-0.8, 0.8, -0.1]

    def test_round_trip_error_bounded(self):
        v = VerbalScheme()
        y = np.linspace(-1.0, 1.0, 4001)
        back = v.decode(v.encode(y))
        assert np.all(np.abs(back - y) <= 0.2 + 1e-12)
        assert ((back >= 0) == (y >= 0)).all()

    @pytest.mark.parametrize("v", [
        VerbalScheme(),
        VerbalScheme(sign_tokens=(5, 0), class_tokens=(1, 2, 3, 4),
                     class_values=(-0.75, -0.25, 0.25, 0.75), eos_token=6),
        VerbalScheme(sign_tokens=(7, 2), class_tokens=(3, 4, 5),
                     class_values=(-0.5, 0.0, 0.5), neutral_value=-0.05,
                     eos_token=1),
    ])
    def test_array_forms_match_scalar_oracles(self, v):
        vocab = 8
        CorpusHeader(d=1, d_t=1, vocab_size=vocab, seed=0, verbal=v).validate()
        y = np.concatenate([_sentiment_grid(k) for k in range(2, 9)])
        assert v.encode(y).tolist() == [list(encode(v, float(s))) for s in y]
        # every (polarity, class) token pair, class tokens off the table too
        t0, t1 = np.meshgrid(np.arange(vocab), np.arange(vocab), indexing="ij")
        tokens = np.stack([t0.ravel(), t1.ravel(), np.full(vocab * vocab, v.eos_token)],
                          axis=1)
        want = [oracles.decode(v, t) for t in tokens.tolist()]
        assert _bits(v.decode(tokens)) == _bits(want)

    def test_dict_round_trip(self):
        v = VerbalScheme()
        assert VerbalScheme.from_dict(v.to_dict()) == v


class TestProfileValidation:
    def test_probability_range(self):
        with pytest.raises(ValidationError):
            CorruptionProfile(p_swap=1.2)
        with pytest.raises(ValidationError):
            CorruptionProfile(p_degrade=-0.1)

    def test_exclusive_kinds_must_fit(self):
        with pytest.raises(ValidationError):
            CorruptionProfile(p_swap=0.5, p_degrade=0.4, p_label_noise=0.2)
        CorruptionProfile(p_swap=0.5, p_degrade=0.4, p_label_noise=0.1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValidationError):
            CorruptionProfile(sigma_benign=-1.0)


class TestGenerate:
    def test_record_count(self):
        c = generate_corpus(10, 2, CLEAN, seed=3, d=8, d_t=8)
        assert len(c) == 30
        assert int(np.sum(~c.augmented)) == 10
        assert int(np.sum(c.augmented)) == 20

    def test_needs_both_polarities(self):
        with pytest.raises(ValidationError, match="cannot generate corpus"):
            generate_corpus(1, 2, CLEAN, seed=0, d=8, d_t=8)
        with pytest.raises(ValidationError, match="cannot generate corpus"):
            generate_corpus(0, 0, CLEAN, seed=0, d=8, d_t=8)

    def test_row_count_bounded_before_generating(self):
        n = MAX_ROWS // 4
        assert generation_header(n, 3, CLEAN, 8, 8, 8).d == 8
        for n_originals, augments in ((n + 1, 3), (MAX_ROWS + 1, 0), (10 ** 20, 2)):
            with pytest.raises(ValidationError, match=f"MAX_ROWS = {MAX_ROWS}"):
                generate_corpus(n_originals, augments, CLEAN, seed=0, d=8, d_t=8)

    def test_polarity_balance(self):
        c = generate_corpus(16, 0, CLEAN, seed=11, d=8, d_t=8)
        pols = c.features.P[~c.augmented].tolist()
        assert pols.count(1) == 8 and pols.count(0) == 8

    def test_augment_ids_and_parents(self):
        c = generate_corpus(4, 3, CLEAN, seed=5, d=8, d_t=8)
        originals, augments, _ = _records(c)
        for s in originals:
            kids = [a for a in augments if a.parent_id == s.id]
            assert [a.id for a in kids] == [f"{s.id}-a{k}" for k in range(3)]
            for a in kids:
                assert a.sentiment == s.sentiment
                assert a.polarity == s.polarity
                assert a.target_tokens == s.target_tokens

    def test_clean_profile_copies_parent_features(self):
        c = generate_corpus(10, 2, CLEAN, seed=7, d=8, d_t=8)
        _, augments, by_id = _records(c)
        for a in augments:
            p = by_id[a.parent_id]
            np.testing.assert_array_equal(a.h_v, p.h_v)
            np.testing.assert_array_equal(a.h_a, p.h_a)
            np.testing.assert_array_equal(a.h_t_raw, p.h_t_raw)
            assert a.hidden_quality == 1.0

    def test_benign_jitter_quality_stays_one(self):
        prof = CorruptionProfile(sigma_benign=0.2)
        c = generate_corpus(10, 3, prof, seed=7, d=8, d_t=8)
        _, augments, by_id = _records(c)
        for a in augments:
            assert a.hidden_quality == 1.0
            p = by_id[a.parent_id]
            assert not np.array_equal(a.h_v, p.h_v)

    def test_swap_only_profile(self):
        prof = CorruptionProfile(sigma_benign=0.0, p_swap=1.0)
        c = generate_corpus(12, 2, prof, seed=19, d=8, d_t=8)
        originals, augments, by_id = _records(c)
        for a in augments:
            p = by_id[a.parent_id]
            v_is_parent = np.array_equal(a.h_v, p.h_v)
            a_is_parent = np.array_equal(a.h_a, p.h_a)
            # exactly one pathway came from elsewhere, text untouched
            assert v_is_parent != a_is_parent
            np.testing.assert_array_equal(a.h_t_raw, p.h_t_raw)
            swapped = a.h_a if v_is_parent else a.h_v
            donors = [o for o in originals
                      if np.array_equal(swapped, o.h_a if v_is_parent else o.h_v)]
            assert len(donors) == 1
            assert donors[0].polarity != p.polarity
            assert 0.0 <= a.hidden_quality < 0.3

    def test_mask_only_profile(self):
        prof = CorruptionProfile(sigma_benign=0.0, p_degrade=1.0,
                                 degrade_mask_rate=0.4)
        c = generate_corpus(10, 4, prof, seed=23, d=50, d_t=50)
        _, augments, by_id = _records(c)
        zeroed = total = 0
        for a in augments:
            assert a.hidden_quality == pytest.approx(0.3 * 0.6)
            p = by_id[a.parent_id]
            for new, old in ((a.h_v, p.h_v), (a.h_a, p.h_a), (a.h_t_raw, p.h_t_raw)):
                kept = new != 0.0
                np.testing.assert_array_equal(new[kept], old[kept])
                zeroed += int(np.sum(~kept))
                total += new.size
        assert abs(zeroed / total - 0.4) < 0.03

    def test_mask_quality_tracks_rate(self):
        qs = []
        for rate in (0.1, 0.5, 0.9):
            prof = CorruptionProfile(sigma_benign=0.0, p_degrade=1.0,
                                     degrade_mask_rate=rate)
            c = generate_corpus(4, 1, prof, seed=2, d=8, d_t=8)
            qs.append(float(c.hidden_quality[c.augmented][0]))
            assert qs[-1] == pytest.approx(0.3 * (1.0 - rate))
        assert qs[0] > qs[1] > qs[2]

    def test_drift_only_profile(self):
        prof = CorruptionProfile(sigma_benign=0.0, p_label_noise=1.0)
        c = generate_corpus(10, 3, prof, seed=29, d=8, d_t=8)
        _, augments, by_id = _records(c)
        for a in augments:
            p = by_id[a.parent_id]
            # q* = 0.3 * (1 - lam) with lam in [0.3, 0.6]
            assert 0.3 * 0.4 - 1e-12 <= a.hidden_quality <= 0.3 * 0.7 + 1e-12
            assert not np.array_equal(a.h_v, p.h_v)
            assert not np.array_equal(a.h_t_raw, p.h_t_raw)
            # label kept even though features drifted toward the wrong side
            assert a.sentiment == p.sentiment

    def test_kind_rates_approach_profile(self):
        prof = CorruptionProfile(sigma_benign=0.0, p_swap=0.25, p_degrade=0.25,
                                 degrade_mask_rate=0.5, p_label_noise=0.25)
        c = generate_corpus(40, 10, prof, seed=31, d=8, d_t=8)
        _, augments, _ = _records(c)
        n_benign = sum(1 for a in augments if a.hidden_quality == 1.0)
        frac = n_benign / len(augments)
        assert abs(frac - 0.25) < 0.07

    def test_signal_is_learnable(self):
        # polarity clusters must be linearly separated along the text axis
        c = generate_corpus(100, 0, CLEAN, seed=13)
        originals, _, _ = _records(c)
        pos = np.mean([s.h_t_raw for s in originals if s.polarity == 1], axis=0)
        neg = np.mean([s.h_t_raw for s in originals if s.polarity == 0], axis=0)
        assert np.linalg.norm(pos - neg) > 1.0

    def test_features_are_read_only(self):
        c = generate_corpus(2, 1, CLEAN, seed=1, d=8, d_t=8)
        with pytest.raises(ValueError):
            c.features.V[0, 0] = 99.0
        for col in (c.ids, *vars(c.features).values(), c.has_audio, c.sentiment,
                    c.augmented, c.parent, c.hidden_quality, c.targets):
            assert not col.flags.writeable


class TestSerialization:
    def test_same_seed_byte_identical(self):
        a = serialize_corpus(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8))
        b = serialize_corpus(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8))
        assert a == b

    def test_different_seed_differs(self):
        a = serialize_corpus(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8))
        b = serialize_corpus(generate_corpus(8, 2, DEFAULTISH, seed=43, d=8, d_t=8))
        assert a != b

    def test_save_load_round_trip(self, tmp_path):
        c = generate_corpus(10, 2, DEFAULTISH, seed=9, d=8, d_t=12)
        path = tmp_path / "corpus.jsonl"
        save_corpus(c, path)
        back = load_corpus(path)
        assert back.header == c.header
        assert len(back) == len(c)
        for s, t in zip(samples_of(c), samples_of(back)):
            assert s.id == t.id
            np.testing.assert_array_equal(s.h_v, t.h_v)
            np.testing.assert_array_equal(s.h_a, t.h_a)
            np.testing.assert_array_equal(s.h_t_raw, t.h_t_raw)
            assert s.sentiment == t.sentiment
            assert s.hidden_quality == t.hidden_quality
            assert s.target_tokens == t.target_tokens
        # re-serialization of the loaded corpus is bit-identical
        assert serialize_corpus(back) == serialize_corpus(c)

    @pytest.mark.parametrize("n_originals", [300, 600])
    def test_load_memory_is_the_columns(self, tmp_path, n_originals):
        """The loader decodes each block onto the end of its column, so its
        traced peak is the final feature columns plus a per-row allowance
        for ids, the other fields and the buffers' growth; a copy of the
        blocks (1,792 bytes a row at these widths) does not fit."""
        path = tmp_path / "c.jsonl"
        save_corpus(generate_corpus(n_originals, 2, DEFAULTISH, seed=8), path)
        tracemalloc.start()
        try:
            f = load_corpus(path).features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= f.V.nbytes + f.A.nbytes + f.T.nbytes + 1024 * len(f)

    def test_checksum_matches_file_bytes(self, tmp_path):
        c = generate_corpus(6, 1, DEFAULTISH, seed=77, d=8, d_t=8)
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        assert corpus_checksum(c) == sha256_hex(path.read_bytes())

    def test_feature_checksum_ignores_labels(self):
        c = generate_corpus(6, 1, DEFAULTISH, seed=77, d=8, d_t=8)
        relabeled = corpus_from_samples(c.header, [
            dataclasses.replace(
                s, hidden_quality=None if s.hidden_quality is None else 0.5)
            for s in samples_of(c)])
        assert feature_checksum(relabeled) == feature_checksum(c)
        assert corpus_checksum(relabeled) != corpus_checksum(c)

    def test_header_field_order_on_disk(self, tmp_path):
        c = generate_corpus(2, 0, CLEAN, seed=1, d=8, d_t=8)
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        first = path.read_text().splitlines()[0]
        keys = list(json.loads(first).keys())
        assert keys == ["d", "d_t", "vocab_size", "seed", "generator_version",
                        "verbal"]

    def test_record_field_order_on_disk(self, tmp_path):
        c = generate_corpus(2, 1, CLEAN, seed=1, d=8, d_t=8)
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        rec = json.loads(path.read_text().splitlines()[1])
        assert list(rec.keys()) == ["id", "h_v", "h_a", "h_t_raw", "polarity",
                                    "sentiment", "origin", "parent_id",
                                    "hidden_quality", "target_tokens"]

    def test_features_on_disk_are_base64_float64(self, tmp_path):
        c = generate_corpus(2, 1, DEFAULTISH, seed=1, d=8, d_t=12)
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header)["generator_version"] == GENERATOR_VERSION
        for row, line in enumerate(lines):
            rec = json.loads(line)
            for key, column in (("h_v", c.features.V), ("h_a", c.features.A),
                                ("h_t_raw", c.features.T)):
                assert rec[key] == feature_block(column[row])
                assert (block_values(rec[key]).view(np.uint64)
                        == column[row].view(np.uint64)).all()

    def test_round_trip_is_bit_exact(self, tmp_path):
        special = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1e-310])
        bits = np.random.default_rng(0).integers(0, 2 ** 63, size=(3, 3, 8),
                                                 dtype=np.uint64)
        bits |= np.random.default_rng(1).integers(0, 2, size=bits.shape,
                                                  dtype=np.uint64) << np.uint64(63)
        values = bits.view(np.float64)
        bits[~np.isfinite(values)] ^= np.uint64(1 << 62)   # exponent all ones
        values[:, :, :4] = special
        header = CorpusHeader(d=8, d_t=8, vocab_size=8, seed=0)
        c = corpus_from_samples(header, [
            Sample(id=f"x{i}", h_v=v, h_a=None if i == 1 else a, h_t_raw=t,
                   polarity=1, sentiment=0.5, origin="Original",
                   target_tokens=encode(header.verbal, 0.5))
            for i, (v, a, t) in enumerate(values)])
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        back = load_corpus(path)
        for name in ("V", "A", "T"):
            got, want = getattr(back.features, name), getattr(c.features, name)
            assert (got.view(np.uint64) == want.view(np.uint64)).all(), name
        assert back.has_audio.tolist() == [True, False, True]
        assert np.signbit(back.features.V[:, 0]).all()   # -0.0 kept
        assert corpus_checksum(back) == corpus_checksum(c)

    def test_missing_audio_round_trip(self, tmp_path):
        header = CorpusHeader(d=4, d_t=4, vocab_size=8, seed=0)
        v = header.verbal
        ones = np.ones(4)
        c = corpus_from_samples(header, [
            Sample(id="x0", h_v=ones, h_a=None, h_t_raw=ones,
                   polarity=1, sentiment=0.5, origin="Original",
                   target_tokens=encode(v, 0.5)),
            Sample(id="x1", h_v=ones, h_a=ones, h_t_raw=ones,
                   polarity=0, sentiment=-0.5, origin="Original",
                   target_tokens=encode(v, -0.5)),
        ])
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        back = {s.id: s for s in samples_of(load_corpus(path))}
        assert back["x0"].h_a is None
        np.testing.assert_array_equal(back["x1"].h_a, ones)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _header(**changes):
    return {"d": 4, "d_t": 4, "vocab_size": 8, "seed": 0,
            "generator_version": GENERATOR_VERSION,
            "verbal": VerbalScheme().to_dict(), **changes}


def _tiny_file(tmp_path, mutate):
    """Write a two-record corpus, letting the test tamper with the dicts;
    features given as arrays are written as blocks (oracles.corpus_line)."""
    header = _header()
    recs = [
        {"id": "r0", "h_v": np.full(4, 1.0), "h_a": np.full(4, 1.0),
         "h_t_raw": np.full(4, 1.0),
         "polarity": 1, "sentiment": 0.5, "origin": "Original",
         "parent_id": None, "hidden_quality": None,
         "target_tokens": [1, 5, 7, -100]},
        {"id": "r1", "h_v": np.full(4, 2.0), "h_a": None,
         "h_t_raw": np.full(4, 2.0),
         "polarity": 0, "sentiment": -0.5, "origin": "Augmented",
         "parent_id": "r0", "hidden_quality": 0.3,
         "target_tokens": [0, 3, 7, -100]},
    ]
    mutate(header, recs)
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [json.dumps(header)] + [corpus_line(r) for r in recs])
    return path


class TestLoadValidation:
    def test_dim_mismatch_message(self, tmp_path):
        def cut(_h, recs):
            recs[1]["h_v"] = np.full(3, 2.0)
        with pytest.raises(ValidationError, match=r"record r1: dim mismatch"):
            load_corpus(_tiny_file(tmp_path, cut))

    def test_audio_dim_checked_when_present(self, tmp_path):
        def cut(_h, recs):
            recs[0]["h_a"] = np.full(5, 1.0)
        with pytest.raises(ValidationError, match=r"record r0: dim mismatch"):
            load_corpus(_tiny_file(tmp_path, cut))

    def test_duplicate_id(self, tmp_path):
        def dup(_h, recs):
            recs[1]["id"] = "r0"
            recs[1]["parent_id"] = None
            recs[1]["origin"] = "Original"
        with pytest.raises(ValidationError, match="record r0: duplicate id"):
            load_corpus(_tiny_file(tmp_path, dup))

    def test_unresolvable_parent(self, tmp_path):
        def orphan(_h, recs):
            recs[1]["parent_id"] = "ghost"
        with pytest.raises(ValidationError, match="unresolvable parent_id ghost"):
            load_corpus(_tiny_file(tmp_path, orphan))

    def test_polarity_must_match_sentiment(self, tmp_path):
        def flip(_h, recs):
            recs[0]["polarity"] = 0
        with pytest.raises(ValidationError, match="polarity"):
            load_corpus(_tiny_file(tmp_path, flip))

    def test_original_with_parent_rejected(self, tmp_path):
        def bad(_h, recs):
            recs[0]["parent_id"] = "r1"
        with pytest.raises(ValidationError, match="Original with parent_id"):
            load_corpus(_tiny_file(tmp_path, bad))

    def test_augmented_needs_parent(self, tmp_path):
        def bad(_h, recs):
            recs[1]["parent_id"] = None
        with pytest.raises(ValidationError, match="Augmented without parent_id"):
            load_corpus(_tiny_file(tmp_path, bad))

    def test_token_out_of_vocab(self, tmp_path):
        def bad(_h, recs):
            recs[0]["target_tokens"] = [1, 9, 7, -100]
        with pytest.raises(ValidationError, match="target token 9 out of range"):
            load_corpus(_tiny_file(tmp_path, bad))

    def test_header_only_file_is_valid_and_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        _write_lines(path, [json.dumps(_header())])
        assert len(load_corpus(path)) == 0

    def test_truly_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="missing header"):
            load_corpus(path)

    def test_parent_must_be_an_original(self, tmp_path):
        def chain(_h, recs):
            recs.append(dict(recs[1], id="r2", parent_id="r1"))
        with pytest.raises(ValidationError,
                           match="record r2: parent_id r1 is not an Original"):
            load_corpus(_tiny_file(tmp_path, chain))

    @pytest.mark.parametrize("field, value, message", (
        ("id", ["r0"], "line 2: field id has type list"),
        ("polarity", "1", "record r0: field polarity has type str"),
        ("polarity", True, "record r0: field polarity has type bool"),
        ("sentiment", "0.5", "record r0: field sentiment has type str"),
        # a decimal list is how the first corpus format held features
        ("h_v", [1.0, 2.0, 3.0, 4.0], "record r0: field h_v has type list"),
        ("target_tokens", [1, 5, 7.0, -100], "record r0: target tokens must be integers"),
        ("target_tokens", [1, 5, 7], "record r1: 4 target tokens, record r0 has 3"),
        ("hidden_quality", float("nan"), "record r0: hidden_quality is NaN"),
        ("h_a", np.array([1.0, np.inf, 1.0, 1.0]), "record r0: non-finite feature"),
        ("sentiment", float("nan"), r"record r0: sentiment nan outside \[-1, 1\]"),
    ))
    def test_field_types_and_values(self, tmp_path, field, value, message):
        def bad(_h, recs):
            recs[0][field] = value
        with pytest.raises(ValidationError, match=message):
            load_corpus(_tiny_file(tmp_path, bad))

    def test_first_bad_record_named(self):
        c = generate_corpus(4, 1, CLEAN, seed=2, d=8, d_t=8)
        samples = samples_of(c)
        samples[6] = dataclasses.replace(samples[6], hidden_quality=1.5)
        samples[2] = dataclasses.replace(samples[2], target_tokens=(1, 9, 7, -100))
        with pytest.raises(ValidationError,
                           match="record o00002: target token 9 out of range"):
            validate_corpus(corpus_from_samples(c.header, samples))

    def test_checksum_is_of_the_bytes_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(generate_corpus(4, 1, DEFAULTISH, seed=3, d=8, d_t=8), path)
        path.write_bytes(path.read_bytes() + b"\n")
        loaded = load_corpus(path)
        assert corpus_checksum(loaded) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert corpus_checksum(loaded) != sha256_hex(serialize_corpus(loaded))

    def test_garbage_json_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        _write_lines(path, [json.dumps(_header()), "{not json"])
        with pytest.raises(ValidationError, match="line 2: bad JSON"):
            load_corpus(path)

    @pytest.mark.parametrize("block, message", (
        (feature_block(np.ones(4)).rstrip("="), "field h_v is not base64: Incorrect padding"),
        (feature_block(np.ones(4)).replace("A", "-", 1), "field h_v is not base64"),
        (feature_block(np.ones(4)).replace("A", "\u00e9", 1), "field h_v is not base64"),
        (feature_block(np.ones(4)) + " ", "field h_v is not base64"),
        (feature_block(np.ones(4))[:-4], "dim mismatch: field h_v holds 30 bytes, not 8 x 4"),
        ("", "dim mismatch: field h_v holds 0 bytes"),
    ), ids=("no padding", "url-safe character", "non-ASCII", "trailing space",
            "30 bytes", "empty"))
    def test_malformed_block(self, tmp_path, block, message):
        def bad(_h, recs):
            recs[0]["h_v"] = block
        with pytest.raises(ValidationError, match=f"record r0: {message}"):
            load_corpus(_tiny_file(tmp_path, bad))

    @pytest.mark.parametrize("version", ("augqual-gen-1", "whatever", ""))
    def test_other_format_version_refused(self, tmp_path, version):
        path = tmp_path / "old.jsonl"
        _write_lines(path, [json.dumps(_header(generator_version=version))])
        with pytest.raises(ValidationError) as info:
            load_corpus(path)
        message = str(info.value)
        assert repr(version) in message and repr(GENERATOR_VERSION) in message
        assert "regenerate the corpus with gen-corpus" in message

    @pytest.mark.parametrize("key, value", (
        ("d", MAX_DIM + 1), ("d", 10 ** 20), ("d_t", MAX_DIM + 1),
        ("vocab_size", 10 ** 20), ("d", 0)))
    def test_header_dimensions_bounded(self, tmp_path, key, value):
        path = tmp_path / "huge.jsonl"
        _write_lines(path, [json.dumps(_header(**{key: value}))])
        with pytest.raises(ValidationError,
                           match=rf"{key} must be in \[1, {MAX_DIM}\], got {value}"):
            load_corpus(path)

    def test_header_dimension_limit_is_inclusive(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        _write_lines(path, [json.dumps(_header(d=MAX_DIM, d_t=MAX_DIM,
                                               vocab_size=MAX_DIM))])
        assert load_corpus(path).header.d == MAX_DIM


class TestSplit:
    def test_eval_takes_last_pairs(self):
        c = generate_corpus(20, 2, DEFAULTISH, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.2)
        assert len(split.eval_originals) == 4
        assert c.ids[split.eval_originals].tolist() == [
            "o00016", "o00017", "o00018", "o00019"]
        assert len(split.train_originals) == 16

    def test_splits_are_polarity_balanced(self):
        c = generate_corpus(20, 0, CLEAN, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.3)
        for rows in (split.train_originals, split.eval_originals):
            pols = c.features.P[rows].tolist()
            assert pols.count(0) == pols.count(1)

    def test_sorted_by_polarity_still_balanced(self, tmp_path):
        # originals paired by polarity, not by position: a file sorted by
        # polarity gave an eval set of one polarity when pairs were (2i, 2i+1)
        c = generate_corpus(8, 0, CLEAN, seed=4, d=8, d_t=8)
        path = tmp_path / "c.jsonl"
        save_corpus(c, path)
        head, *records = path.read_text().splitlines()
        records.sort(key=lambda line: json.loads(line)["polarity"])
        _write_lines(path, [head] + records)
        sorted_c = load_corpus(path)
        assert sorted_c.features.P.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        split = train_eval_split(sorted_c, eval_fraction=0.25)
        assert sorted_c.features.P[split.eval_originals].tolist() == [0, 1]
        assert sorted_c.features.P[split.train_originals].tolist() == [0, 0, 0, 1, 1, 1]

    def test_surplus_originals_train_only_without_eval(self):
        c = generate_corpus(7, 1, CLEAN, seed=4, d=8, d_t=8)
        held = train_eval_split(c, eval_fraction=0.4)
        assert held.train_originals.tolist() == [0, 1, 2, 3]
        assert held.eval_originals.tolist() == [4, 5]      # o00006 unpaired
        every = train_eval_split(c, eval_fraction=0.0)
        assert every.train_originals.tolist() == list(range(7))
        assert every.pool("all").tolist() == list(range(14))

    def test_augments_follow_parents(self):
        c = generate_corpus(10, 3, DEFAULTISH, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.2)
        train_set = set(split.train_originals.tolist())
        eval_set = set(split.eval_originals.tolist())
        assert len(split.train_augments) == 3 * len(split.train_originals)
        for row in split.train_augments:
            assert c.parent[row] in train_set
        # no augment may leak from a held-out parent
        train_augments = set(split.train_augments.tolist())
        for row in np.flatnonzero(c.augmented):
            assert (row in train_augments) == (c.parent[row] in train_set)
            assert c.parent[row] not in eval_set or row not in train_augments

    def test_pools(self):
        c = generate_corpus(10, 2, DEFAULTISH, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.2)
        both = np.concatenate([split.train_originals, split.train_augments])
        np.testing.assert_array_equal(split.pool("all"), both)
        np.testing.assert_array_equal(split.pool("original"), split.train_originals)
        np.testing.assert_array_equal(split.pool("augmented"), split.train_augments)

    def test_label_fraction_keeps_leading_pairs(self):
        c = generate_corpus(20, 1, DEFAULTISH, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.2, label_fraction=0.5)
        assert len(split.train_originals) == 8
        assert c.ids[split.train_originals[0]] == "o00000"
        # eval side unaffected by label budget
        assert len(split.eval_originals) == 4

    def test_zero_eval_fraction(self):
        c = generate_corpus(7, 0, CLEAN, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.0)
        assert split.eval_originals.size == 0
        assert len(split.train_originals) == 7

    def test_bad_fractions_rejected(self):
        c = generate_corpus(8, 0, CLEAN, seed=4, d=8, d_t=8)
        with pytest.raises(ValidationError):
            train_eval_split(c, eval_fraction=1.0)
        with pytest.raises(ValidationError):
            train_eval_split(c, eval_fraction=0.2, label_fraction=0.0)

    def test_split_is_deterministic(self):
        c = generate_corpus(30, 2, DEFAULTISH, seed=4, d=8, d_t=8)
        a, b = train_eval_split(c, 0.2), train_eval_split(c, 0.2)
        for name in ("train_originals", "train_augments", "eval_originals"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
