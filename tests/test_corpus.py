"""Corpus generation, serialization, verbalization, and split tests."""

import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from augqual.corpus import (
    GENERATOR_VERSION,
    MAX_DIM,
    MAX_ROWS,
    Corpus,
    CorpusConfig,
    CorpusHeader,
    CorruptionProfile,
    VerbalScheme,
    corpus_checksum,
    generate_corpus,
    load_corpus,
    save_corpus,
    sentiment_class,
    header_from_dict,
    train_eval_split,
    validate_corpus,
)
from augqual.util import ValidationError, config_from_dict, config_to_dict
import oracles
from oracles import (
    Sample,
    corpus_file,
    corpus_from_samples,
    corpus_with,
    encode,
    feature_checksum,
    samples_of,
    with_header,
)

CLEAN = CorruptionProfile(sigma_benign=0.0, p_swap=0.0, p_degrade=0.0,
                          p_label_noise=0.0)
DEFAULTISH = CorruptionProfile(sigma_benign=0.05, p_swap=0.2, p_degrade=0.2,
                               degrade_mask_rate=0.5, p_label_noise=0.2)


def _records(c):
    """Originals, augments and an id lookup, as per-sample records."""
    samples = samples_of(c)
    return ([s for s in samples if s.parent_id is None],
            [s for s in samples if s.parent_id is not None],
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
        assert v.encode([0.5, -0.9, 0.0]).tolist() == [[1, 5, 7], [0, 2, 7], [1, 4, 7]]

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
        CorpusHeader(d=1, d_t=1, vocab_size=vocab, seed=0, verbal=v)   # fits vocab
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
        assert config_from_dict(VerbalScheme, config_to_dict(v)) == v


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
        with pytest.raises(ValidationError, match=r"^CorpusConfig\.n_originals "
                                                  r"must be in \[2, inf\), got 1$"):
            generate_corpus(1, 2, CLEAN, seed=0, d=8, d_t=8)
        with pytest.raises(ValidationError, match=r"^CorpusConfig\.n_originals "
                                                  r"must be in \[2, inf\), got 0$"):
            generate_corpus(0, 0, CLEAN, seed=0, d=8, d_t=8)

    def test_row_count_bounded_before_generating(self):
        n = MAX_ROWS // 4
        assert CorpusConfig(n_originals=n, augments_per_original=3, d=8, d_t=8,
                            profile=CLEAN).n_originals == n
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
        for col in (*vars(c.features).values(), c.has_audio, c.sentiment,
                    c.augmented, c.parent, c.hidden_quality):
            assert not col.flags.writeable


def _saved(corpus, path) -> bytes:
    save_corpus(corpus, path)
    return path.read_bytes()


class TestSerialization:
    def test_same_seed_byte_identical(self, tmp_path):
        a = _saved(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8), tmp_path / "a")
        b = _saved(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8), tmp_path / "b")
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        a = _saved(generate_corpus(8, 2, DEFAULTISH, seed=42, d=8, d_t=8), tmp_path / "a")
        b = _saved(generate_corpus(8, 2, DEFAULTISH, seed=43, d=8, d_t=8), tmp_path / "b")
        assert a != b

    def test_save_load_round_trip(self, tmp_path):
        c = generate_corpus(10, 2, DEFAULTISH, seed=9, d=8, d_t=12)
        path = tmp_path / "corpus.bin"
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
            assert s.polarity == t.polarity and s.parent_id == t.parent_id
        # re-serialization of the loaded corpus is bit-identical
        assert _saved(back, tmp_path / "again.bin") == path.read_bytes()

    @pytest.mark.parametrize("n_originals", [300, 600])
    def test_load_memory_is_the_columns(self, tmp_path, n_originals):
        """The loader reads the file into one buffer and takes each column as
        a view of it, so its traced peak is the feature columns plus a per-row
        allowance for the other columns and what the checks derive; a second
        copy of the features (1,792 bytes a row at these widths) does not
        fit. Every stored column is an aligned, read-only view of that one
        buffer."""
        path = tmp_path / "c.bin"
        save_corpus(generate_corpus(n_originals, 2, DEFAULTISH, seed=8), path)
        tracemalloc.start()
        try:
            c = load_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        f = c.features
        assert peak <= f.V.nbytes + f.A.nbytes + f.T.nbytes + 1024 * len(f)
        columns = (f.V, f.A, f.T, c.sentiment, c.hidden_quality, c.parent, c.has_audio)
        buffer = f.V.base
        assert buffer.nbytes == path.stat().st_size
        for column in columns:
            assert column.flags.aligned and not column.flags.writeable
            assert column.base is buffer and np.shares_memory(column, buffer)

    def test_checksum_matches_file_bytes(self, tmp_path):
        c = generate_corpus(6, 1, DEFAULTISH, seed=77, d=8, d_t=8)
        path = tmp_path / "c.bin"
        save_corpus(c, path)
        assert corpus_checksum(c) == hashlib.sha256(path.read_bytes()).hexdigest()

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
        first = _saved(c, tmp_path / "c.bin").split(b"\n")[0]
        keys = list(json.loads(first).keys())
        assert keys == ["d", "d_t", "vocab_size", "seed", "generator_version",
                        "verbal", "rows"]

    def test_record_field_order_on_disk(self, tmp_path):
        """The columns follow the header in the order V, A, T, sentiment,
        hidden_quality, parent, has_audio (oracles.corpus_file)."""
        c = generate_corpus(3, 2, DEFAULTISH, seed=1, d=8, d_t=12)
        assert _saved(c, tmp_path / "c.bin") == corpus_file(c)

    def test_layout_of_three_rows(self, tmp_path):
        """The file of a 3-row corpus, built by hand: the header with its row
        count, padded with spaces to 8 bytes, then each column's little-endian
        values in file order."""
        header = CorpusHeader(d=2, d_t=1, vocab_size=8, seed=5)
        c = Corpus(header=header, V=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                   A=[[0.5, -0.5], [0.0, 0.0], [7.0, 8.0]], T=[[9.0], [-9.0], [0.25]],
                   has_audio=[True, False, True], sentiment=[0.5, -0.5, 0.5],
                   parent=[-1, -1, 0], hidden_quality=[np.nan, np.nan, 0.25])
        text = ('{"d":2,"d_t":1,"vocab_size":8,"seed":5,'
                f'"generator_version":"{GENERATOR_VERSION}","verbal":'
                '{"sign_tokens":[0,1],"class_tokens":[2,3,4,5,6],'
                '"class_values":[-0.8,-0.4,0.0,0.4,0.8],"neutral_value":0.1,'
                '"eos_token":7},"rows":3}').encode()
        line = text + b" " * (-(len(text) + 1) % 8) + b"\n"
        assert len(line) % 8 == 0 and line.rstrip(b" \n") == text
        nan = struct.pack("<d", np.nan)
        want = (line + struct.pack("<6d", 1, 2, 3, 4, 5, 6)
                + struct.pack("<6d", 0.5, -0.5, 0, 0, 7, 8)
                + struct.pack("<3d", 9, -9, 0.25) + struct.pack("<3d", 0.5, -0.5, 0.5)
                + nan + nan + struct.pack("<d", 0.25)
                + struct.pack("<3q", -1, -1, 0) + bytes([1, 0, 1]))
        assert _saved(c, tmp_path / "c.bin") == want
        assert load_corpus(tmp_path / "c.bin").parent.tolist() == [-1, -1, 0]

    def test_features_on_disk_are_raw_float64(self, tmp_path):
        c = generate_corpus(2, 1, DEFAULTISH, seed=1, d=8, d_t=12)
        data = _saved(c, tmp_path / "c.bin")
        line = data[:data.index(b"\n") + 1]
        assert json.loads(line)["generator_version"] == GENERATOR_VERSION
        offset = len(line)
        for column in (c.features.V, c.features.A, c.features.T):
            raw = np.frombuffer(data, "<u8", column.size, offset)
            assert (raw == column.ravel().view(np.uint64)).all()
            offset += column.nbytes

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
                   polarity=1, sentiment=0.5)
            for i, (v, a, t) in enumerate(values)])
        path = tmp_path / "c.bin"
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
        ones = np.ones(4)
        c = corpus_from_samples(header, [
            Sample(id="x0", h_v=ones, h_a=None, h_t_raw=ones, polarity=1, sentiment=0.5),
            Sample(id="x1", h_v=ones, h_a=ones, h_t_raw=ones, polarity=0, sentiment=-0.5),
        ])
        path = tmp_path / "c.bin"
        save_corpus(c, path)
        back = samples_of(load_corpus(path))
        assert back[0].h_a is None
        np.testing.assert_array_equal(back[1].h_a, ones)


def _header(**changes):
    return {"d": 4, "d_t": 4, "vocab_size": 8, "seed": 0,
            "generator_version": GENERATOR_VERSION,
            "verbal": config_to_dict(VerbalScheme()), **changes}


def _header_only(path, header, rows=0):
    """Write a corpus file that holds only its header line: the header
    object, with the row count when it is an object, padded as the format
    pads it."""
    doc = {**header, "rows": rows} if type(header) is dict else header
    path.write_bytes(with_header(b"{}\n", lambda _: doc))
    return path


def _tiny():
    """A two-row corpus: row 0, an original with audio, and its augment in
    row 1, which has none."""
    return Corpus(header=CorpusHeader(d=4, d_t=4, vocab_size=8, seed=0),
                  V=[np.full(4, 1.0), np.full(4, 2.0)],
                  A=[np.full(4, 1.0), np.zeros(4)], T=[np.full(4, 1.0), np.full(4, 2.0)],
                  has_audio=[True, False], sentiment=[0.5, -0.5], parent=[-1, 0],
                  hidden_quality=[np.nan, 0.3])


def _tiny_file(tmp_path, **columns):
    """Save the two-row corpus with the named columns replaced; nothing is
    checked before the loader."""
    path = tmp_path / "tiny.bin"
    save_corpus(corpus_with(_tiny(), **columns), path)
    return path


def _edited_file(tmp_path, edit):
    """Save the two-row corpus and rewrite its bytes with edit(bytes)."""
    path = tmp_path / "tiny.bin"
    save_corpus(_tiny(), path)
    path.write_bytes(edit(path.read_bytes()))
    return path


# Bytes after the 8-aligned header of the two-row corpus: V, A, T, then the
# one-value columns sentiment, hidden_quality and parent, then has_audio.
_TINY_HEADER = len(with_header(b"{}\n", lambda _: {**_header(), "rows": 2}))
_TINY_A = _TINY_HEADER + 2 * 4 * 8


class TestLoadValidation:
    def test_dim_mismatch_message(self, tmp_path):
        """A header whose d disagrees with the columns leaves the file's size
        at odds with its rows."""
        path = _edited_file(tmp_path, lambda data: with_header(
            data, lambda h: {**h, "d": 3}))
        row_bytes = 8 * (3 + 3 + 4 + 3) + 1
        with pytest.raises(ValidationError, match=re.escape(
                f"corpus file holds {path.stat().st_size} bytes, not the "
                f"{_TINY_HEADER}-byte header plus 2 rows of {row_bytes} bytes")):
            load_corpus(path)

    def test_audio_dim_checked_when_present(self, tmp_path):
        """An audio column one float longer than rows x d shifts every column
        after it, and the size gives it away."""
        path = _edited_file(tmp_path, lambda data: (
            data[:_TINY_A + 8] + struct.pack("<d", 1.0) + data[_TINY_A + 8:]))
        with pytest.raises(ValidationError, match="corpus file holds .* bytes, not"):
            load_corpus(path)

    def test_unresolvable_parent(self, tmp_path):
        for parent in (2, 7, -2):
            with pytest.raises(ValidationError,
                               match=re.escape(f"row 1: parent {parent} outside [-1, 2)")):
                load_corpus(_tiny_file(tmp_path, parent=[-1, parent]))

    def test_polarity_must_match_sentiment(self, tmp_path):
        """The polarity is the sentiment's sign, derived on load; the file
        stores no polarity to disagree with it."""
        assert load_corpus(_tiny_file(tmp_path)).features.P.tolist() == [1, 0]
        flipped = load_corpus(_tiny_file(tmp_path, sentiment=[-0.5, 0.5]))
        assert flipped.features.P.tolist() == [0, 1]

    def test_original_with_parent_rejected(self, tmp_path):
        """A row with a parent is an augment, so an original cannot have one:
        row 0 given the augment in row 1 as parent is an augment of an
        augment."""
        with pytest.raises(ValidationError, match="^row 0: parent 1 is not an Original$"):
            load_corpus(_tiny_file(tmp_path, parent=[1, 0]))

    def test_augmented_needs_parent(self, tmp_path):
        """Whether a row is an augment is whether it has a parent: with
        parent -1, row 1 loads as an original."""
        loaded = load_corpus(_tiny_file(tmp_path))
        assert loaded.augmented.tolist() == [False, True]
        assert loaded.parent.tolist() == [-1, 0]
        loaded = load_corpus(_tiny_file(tmp_path, parent=[-1, -1]))
        assert loaded.augmented.tolist() == [False, False]
        assert loaded.parent.tolist() == [-1, -1]

    def test_token_out_of_vocab(self, tmp_path):
        """Target tokens come from the header's verbal table, which fits
        vocab_size; the file stores no tokens that could leave it."""
        loaded = load_corpus(_tiny_file(tmp_path))
        tokens = loaded.header.verbal.encode(loaded.sentiment)
        assert ((tokens >= 0) & (tokens < loaded.header.vocab_size)).all()

    @pytest.mark.parametrize("tokens", (
        [0, 5, 7], [1, 4, 7], [1, 5, 7, -100], [1, 5, 0]),
        ids=("polarity", "bin", "padding", "end"))
    def test_tokens_must_encode_sentiment(self, tmp_path, tokens):
        """A row's target tokens are its sentiment's encoding, [1, 5, 7] for
        row 0, because the file stores only the sentiment. A row reaches
        other tokens only by storing a sentiment that encodes to them, whose
        polarity then agrees with the polarity token; tokens no sentiment
        encodes to, such as the old padded form, cannot be reached."""
        verbal = VerbalScheme()
        assert load_corpus(_tiny_file(tmp_path)).features.P[0] == 1
        grid = _sentiment_grid(5)
        hits = grid[[t == tokens for t in verbal.encode(grid).tolist()]]
        assert (hits.size > 0) == (tokens == [1, 4, 7])   # 0 <= y < 0.2
        for y in hits[:3]:
            loaded = load_corpus(_tiny_file(tmp_path, sentiment=[y, -0.5]))
            assert verbal.encode(loaded.sentiment[:1]).tolist() == [tokens]
            assert verbal.sign_tokens[loaded.features.P[0]] == tokens[0]

    def test_header_only_file_is_valid_and_empty(self, tmp_path):
        assert len(load_corpus(_header_only(tmp_path / "empty.bin", _header()))) == 0

    def test_truly_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.bin"
        path.write_text("")
        with pytest.raises(ValidationError, match="missing header"):
            load_corpus(path)

    def test_parent_must_be_an_original(self, tmp_path):
        c = _tiny()
        chain = Corpus(header=c.header, V=np.r_[c.features.V, c.features.V[1:]],
                       A=np.r_[c.features.A, c.features.A[1:]],
                       T=np.r_[c.features.T, c.features.T[1:]],
                       has_audio=[True, False, False], sentiment=[0.5, -0.5, -0.5],
                       parent=[-1, 0, 1], hidden_quality=[np.nan, 0.3, 0.3])
        path = tmp_path / "chain.bin"
        save_corpus(chain, path)
        with pytest.raises(ValidationError, match="^row 2: parent 1 is not an Original$"):
            load_corpus(path)

    @pytest.mark.parametrize("column, values, message", (
        ("sentiment", [np.nan, -0.5], r"row 0: sentiment nan outside \[-1, 1\]"),
        ("sentiment", [0.5, -1.5], r"row 1: sentiment -1.5 outside"),
        ("hidden_quality", [np.nan, np.inf], "row 1: hidden_quality outside"),
        ("hidden_quality", [-0.5, 0.3], "row 0: hidden_quality outside"),
        ("A", [[1.0, np.inf, 1.0, 1.0], np.zeros(4)], "row 0: non-finite feature"),
        ("T", [np.ones(4), [2.0, 2.0, np.nan, 2.0]], "row 1: non-finite feature"),
        ("A", [np.ones(4), [0.0, 0.0, 5e-324, 0.0]],
         "row 1: audio features but no audio"),
    ), ids=("sentiment nan", "sentiment -1.5", "hidden_quality inf",
            "hidden_quality -0.5", "inf audio", "nan text", "audio without audio"))
    def test_column_values(self, tmp_path, column, values, message):
        with pytest.raises(ValidationError, match=message):
            load_corpus(_tiny_file(tmp_path, **{column: values}))

    @pytest.mark.parametrize("edit, message", (
        (lambda data: data[:-1], "corpus file holds .* bytes, not"),
        (lambda data: data[:-33], "corpus file holds .* bytes, not"),
        (lambda data: data + b"\n", "corpus file holds .* bytes, not"),
        (lambda data: data + bytes(8 * (4 + 4 + 4 + 3) + 1),
         "corpus file holds .* bytes, not"),
        (lambda data: with_header(data, lambda h: {**h, "rows": 3}),
         "corpus file holds .* bytes, not .* plus 3 rows"),
        (lambda data: with_header(data, lambda h: {k: v for k, v in h.items()
                                                   if k != "rows"}),
         "rows must be a non-negative integer, got None"),
        (lambda data: with_header(data, lambda h: {**h, "rows": -2}),
         "rows must be a non-negative integer, got -2"),
        (lambda data: with_header(data, lambda h: {**h, "rows": 2.0}),
         "rows must be a non-negative integer, got 2.0"),
        (lambda data: with_header(data, lambda h: {**h, "rows": "2"}),
         "rows must be a non-negative integer, got '2'"),
        (lambda data: with_header(data, lambda h: {**h, "rows": True}),
         "rows must be a non-negative integer, got True"),
        (lambda data: data[:data.index(b"\n")], "no newline ends the header line"),
        (lambda data: data.replace(b"\n", b" \n", 1),
         "bad corpus header: its line of .* bytes is not padded to a multiple of 8"),
        (lambda data: data[:-1] + b"\x02", "row 1: has_audio byte 2 is not 0 or 1"),
        (lambda data: data[:-2] + b"\xff\x00", "row 0: has_audio byte 255 is not 0 or 1"),
    ), ids=("a byte short", "a column short", "trailing newline", "a row long",
            "rows too many", "rows missing", "rows negative", "rows a float",
            "rows a string", "rows a bool", "no newline", "header not padded",
            "has_audio 2", "has_audio 255"))
    def test_bad_binary_refused(self, tmp_path, edit, message):
        with pytest.raises(ValidationError, match=message):
            load_corpus(_edited_file(tmp_path, edit))

    @pytest.mark.parametrize("edit, message", (
        # seed 10 is a digit longer than seed 0, so its line is padded
        (lambda data: re.sub(rb" +\n", b"\n", with_header(
            data, lambda h: {**h, "seed": 10}), count=1),
         "bad corpus header: its line of 217 bytes is not padded"),
        (lambda data: data.replace(b"\n", b"\xe9\n", 1),
         "bad corpus header: 'utf-8' codec can't decode byte 0xe9"),
        (lambda data: data[:_TINY_A] + b" " + data[_TINY_A:],
         "corpus file holds .* bytes, not"),
        (lambda data: data[:_TINY_HEADER + 30] + data[_TINY_A:],
         "corpus file holds .* bytes, not"),
        (lambda data: data[:_TINY_HEADER] + data[_TINY_A:],
         "corpus file holds .* bytes, not"),
    ), ids=("no padding", "non-ASCII", "trailing space", "30 bytes", "empty"))
    def test_malformed_block(self, tmp_path, edit, message):
        """The header line without its padding or with a byte that is not
        UTF-8, and the V column with a byte past its end, cut to 30 of its
        64 bytes, or empty."""
        with pytest.raises(ValidationError, match=message):
            load_corpus(_edited_file(tmp_path, edit))

    def test_first_bad_record_named(self):
        c = generate_corpus(4, 1, CLEAN, seed=2, d=8, d_t=8)
        samples = samples_of(c)
        samples[6] = dataclasses.replace(samples[6], hidden_quality=1.5)
        samples[2] = dataclasses.replace(samples[2], sentiment=1.5)
        with pytest.raises(ValidationError,
                           match=r"^row 2: sentiment 1.5 outside \[-1, 1\]$"):
            validate_corpus(corpus_from_samples(c.header, samples))

    def test_checksum_is_of_the_bytes_read(self, tmp_path):
        """A header padded with 8 more spaces than the writer puts loads, and
        the checksum is that of its bytes, not of the file save_corpus would
        write."""
        path = tmp_path / "c.bin"
        save_corpus(generate_corpus(4, 1, DEFAULTISH, seed=3, d=8, d_t=8), path)
        written = path.read_bytes()
        path.write_bytes(written.replace(b"\n", b"        \n", 1))
        loaded = load_corpus(path)
        assert corpus_checksum(loaded) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert corpus_checksum(loaded) != hashlib.sha256(written).hexdigest()

    def test_replaced_corpus_hashes_its_own_file(self, tmp_path):
        """A corpus made by dataclasses.replace from a loaded one does not
        keep the bytes that one was read from: its checksum is that of the
        file save_corpus would write."""
        path = tmp_path / "c.bin"
        save_corpus(generate_corpus(4, 1, DEFAULTISH, seed=3, d=8, d_t=8), path)
        written = path.read_bytes()
        path.write_bytes(written.replace(b"\n", b"        \n", 1))
        loaded = load_corpus(path)
        f = loaded.features
        replaced = dataclasses.replace(loaded, V=f.V, A=f.A, T=f.T)
        assert corpus_checksum(replaced) == hashlib.sha256(written).hexdigest()
        assert corpus_checksum(loaded) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_garbage_json_line(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"{not json      \n")
        with pytest.raises(ValidationError, match="bad corpus header: Expecting"):
            load_corpus(path)

    @pytest.mark.parametrize("version", ("augqual-gen-1", "augqual-gen-2",
                                         "augqual-gen-3", "whatever", ""))
    def test_other_format_version_refused(self, tmp_path, version):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(_header(generator_version=version)) + "\n")
        with pytest.raises(ValidationError) as info:
            load_corpus(path)
        message = str(info.value)
        assert repr(version) in message and repr(GENERATOR_VERSION) in message
        assert "regenerate the corpus with gen-corpus" in message

    @pytest.mark.parametrize("key, value", (
        ("d", MAX_DIM + 1), ("d", 10 ** 20), ("d_t", MAX_DIM + 1),
        ("vocab_size", 10 ** 20), ("d", 0)))
    def test_header_dimensions_bounded(self, tmp_path, key, value):
        path = _header_only(tmp_path / "huge.bin", _header(**{key: value}), rows=10 ** 6)
        with pytest.raises(ValidationError,
                           match=rf"{key} must be in \[1, {MAX_DIM}\], got {value}"):
            load_corpus(path)

    def test_header_dimension_limit_is_inclusive(self, tmp_path):
        path = _header_only(tmp_path / "wide.bin", _header(d=MAX_DIM, d_t=MAX_DIM,
                                                           vocab_size=MAX_DIM))
        assert load_corpus(path).header.d == MAX_DIM


# Verbal tables that pass every type check but break what decoding relies
# on, with the message each is refused with.
BAD_VERBAL = [
    ("class tokens apart", {"class_tokens": [2, 4, 6, 8, 10]}, 11,
     r"class tokens must be consecutive ascending integers, got \[2, 4, 6, 8, 10\]"),
    ("class tokens descending", {"class_tokens": [6, 5, 4, 3, 2]}, 8,
     r"class tokens must be consecutive ascending integers, got \[6, 5, 4, 3, 2\]"),
    ("class value 5", {"class_values": [-0.8, -0.4, 0.0, 0.4, 5.0]}, 8,
     r"VerbalScheme.class_values must be in \[-1, 1\], got 5.0"),
    ("neutral value nan", {"neutral_value": float("nan")}, 8,
     "key verbal.neutral_value must be a finite number"),
    ("neutral value -1.5", {"neutral_value": -1.5}, 8,
     r"VerbalScheme.neutral_value must be in \[-1, 1\]"),
    ("equal sign tokens", {"sign_tokens": [1, 1]}, 8,
     r"2 distinct sign tokens, got \[1, 1\]"),
    ("three sign tokens", {"sign_tokens": [0, 1, 2]}, 8, "2 distinct sign tokens"),
    ("one class value", {"class_values": [0.0]}, 8, "one value per class token"),
    ("no class tokens", {"class_tokens": [], "class_values": []}, 8,
     "one value per class token"),
    ("negative eos token", {"eos_token": -1}, 8,
     r"VerbalScheme.eos_token must be in \[0, 65536\), got -1"),
    ("eos token beyond vocab", {"eos_token": 8}, 8,
     "^bad corpus header: verbal tokens exceed vocab_size$"),
]


class TestHeaderSchema:
    """The header and its verbal table are read, written and checked by the
    config walker from their dataclass fields: every key, of its exact JSON
    type, and no other; building either checks its ranges and the table's
    cross-field rules."""

    def test_walker_round_trip(self):
        v = VerbalScheme(sign_tokens=(7, 2), class_tokens=(3, 4, 5),
                         class_values=(-0.5, 0.0, 0.5), neutral_value=-0.05,
                         eos_token=1)
        h = CorpusHeader(d=3, d_t=5, vocab_size=9, seed=-4, verbal=v)
        doc = config_to_dict(h)
        assert list(doc) == ["d", "d_t", "vocab_size", "seed",
                             "generator_version", "verbal"]
        assert doc["verbal"] == {"sign_tokens": [7, 2], "class_tokens": [3, 4, 5],
                                 "class_values": [-0.5, 0.0, 0.5],
                                 "neutral_value": -0.05, "eos_token": 1}
        assert config_from_dict(VerbalScheme, doc["verbal"]) == v
        assert header_from_dict(json.loads(json.dumps(doc))) == h

    @pytest.mark.parametrize("header, message", [
        (_header(extra=1), "unknown header key: extra"),
        (_header(verbal={**config_to_dict(VerbalScheme()), "pad_token": 9}),
         "unknown header key: verbal.pad_token"),
        ({k: v for k, v in _header().items() if k != "seed"},
         "missing header key: seed"),
        (_header(verbal={k: v for k, v in config_to_dict(VerbalScheme()).items()
                         if k != "eos_token"}),
         "missing header key: verbal.eos_token"),
        (_header(seed="0"), "header key seed must be an integer, got a string"),
        (_header(d=4.0), "header key d must be an integer, got a float"),
        (_header(vocab_size=True), "header key vocab_size must be an integer, got a boolean"),
        (_header(generator_version=2), "header key generator_version must be a string"),
        (_header(verbal=[]), "header section verbal must be an object"),
        (_header(verbal={**config_to_dict(VerbalScheme()), "class_tokens": [2, 3.0]}),
         r"header key verbal.class_tokens\[1\] must be an integer, got a float"),
        (_header(verbal={**config_to_dict(VerbalScheme()), "class_values": "x"}),
         "header key verbal.class_values must be an array, got a string"),
        ([_header()], "header must be a JSON object"),
    ], ids=["unknown key", "unknown verbal key", "missing key", "missing verbal key",
            "string seed", "float d", "bool vocab_size", "int version",
            "verbal a list", "float class token", "string class values", "a list"])
    def test_bad_key_refused(self, tmp_path, header, message):
        path = _header_only(tmp_path / "bad.bin", header)
        with pytest.raises(ValidationError, match=f"^bad corpus header: ({message})"):
            load_corpus(path)

    @pytest.mark.parametrize("case, verbal, vocab, message", BAD_VERBAL,
                             ids=[case[0] for case in BAD_VERBAL])
    def test_verbal_invariants_on_load(self, tmp_path, case, verbal, vocab, message):
        table = {**config_to_dict(VerbalScheme()), **verbal}
        path = _header_only(tmp_path / "bad.bin", _header(vocab_size=vocab, verbal=table))
        with pytest.raises(ValidationError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize("case, verbal, vocab, message", BAD_VERBAL,
                             ids=[case[0] for case in BAD_VERBAL])
    def test_verbal_invariants_in_memory(self, case, verbal, vocab, message):
        if "finite" in message:   # the reader refuses NaN before building the table
            message = r"VerbalScheme.neutral_value must be in \[-1, 1\], got nan"
        with pytest.raises(ValidationError, match=message.replace("^bad corpus header: ", "^")):
            CorpusHeader(d=1, d_t=1, vocab_size=vocab, seed=0,
                         verbal=VerbalScheme(**{k: tuple(v) if type(v) is list else v
                                                for k, v in verbal.items()}))


class TestSplit:
    def test_eval_takes_last_pairs(self):
        c = generate_corpus(20, 2, DEFAULTISH, seed=4, d=8, d_t=8)
        split = train_eval_split(c, eval_fraction=0.2)
        assert len(split.eval_originals) == 4
        assert split.eval_originals.tolist() == [16, 17, 18, 19]
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
        order = np.argsort(c.sentiment >= 0.0, kind="stable")
        f = c.features
        path = tmp_path / "c.bin"
        save_corpus(corpus_with(c, V=f.V[order], A=f.A[order], T=f.T[order],
                                sentiment=c.sentiment[order],
                                hidden_quality=c.hidden_quality[order]), path)
        sorted_c = load_corpus(path)
        assert sorted_c.features.P.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        split = train_eval_split(sorted_c, eval_fraction=0.25)
        assert sorted_c.features.P[split.eval_originals].tolist() == [0, 1]
        assert sorted_c.features.P[split.train_originals].tolist() == [0, 0, 0, 1, 1, 1]

    def test_surplus_originals_train_only_without_eval(self):
        c = generate_corpus(7, 1, CLEAN, seed=4, d=8, d_t=8)
        held = train_eval_split(c, eval_fraction=0.4)
        assert held.train_originals.tolist() == [0, 1, 2, 3]
        assert held.eval_originals.tolist() == [4, 5]      # row 6 unpaired
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
        assert split.train_originals[0] == 0
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
