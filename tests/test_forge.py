"""Forged-negative construction tests."""

import numpy as np
import pytest

from augqual.corpus import VerbalScheme
from augqual.corpus import FeatureRows
from augqual.forge import FAMILIES, ForgeConfig, _mix_rows, forge_batch
from augqual.util import ValidationError, derived_rng
from forge_reference import family_items, forge_items, forged_batch_from_items
from oracles import Sample, encode, mix_rows_loop, rows_of

D, DT = 6, 10
_VERBAL = VerbalScheme()


def _mk(idx, sentiment, audio=True):
    rng = np.random.default_rng(1000 + idx)
    return Sample(
        id=f"s{idx}", h_v=rng.standard_normal(D),
        h_a=rng.standard_normal(D) if audio else None,
        h_t_raw=rng.standard_normal(DT),
        polarity=1 if sentiment >= 0 else 0, sentiment=sentiment,
        origin="Original", target_tokens=encode(_VERBAL, sentiment))


def _forge(samples, rng, mask_rate=0.3, d=D, d_t=DT):
    return forge_batch(rows_of(samples, d, d_t), rng,
                       ForgeConfig(mask_rate=mask_rate))


def _family(samples, rng, family, mask_rate=0.3, d=D, d_t=DT):
    """The library's rows of one family, as per-sample items."""
    return family_items(_forge(samples, rng, mask_rate, d, d_t), samples)[family]


@pytest.fixture
def batch():
    return [_mk(0, 0.8), _mk(1, -0.6), _mk(2, 0.3), _mk(3, -0.9),
            _mk(4, 0.5, audio=False)]


class TestPositives:
    def test_labels_and_identity(self, batch):
        pos = _family(batch, derived_rng(0, "forge-test"), "pos")
        assert len(pos) == len(batch)
        for it, s in zip(pos, batch):
            assert it.label == 1 and it.family == "pos"
            assert it.polarity == s.polarity
            assert it.source_id == s.id
            np.testing.assert_array_equal(it.h_v, s.h_v)
            np.testing.assert_array_equal(it.h_t_raw, s.h_t_raw)

    def test_missing_audio_becomes_zero(self, batch):
        pos = _family(batch, derived_rng(0, "forge-test"), "pos")
        np.testing.assert_array_equal(pos[4].h_a, np.zeros(D))


class TestMix:
    def test_one_pathway_from_opposite_donor(self, batch):
        rng = derived_rng(0, "forge-test")
        by_id = {s.id: s for s in batch}
        for it in _family(batch, rng, "mix"):
            assert it.label == 0 and it.family == "mix"
            src = by_id[it.source_id]
            assert it.polarity == src.polarity
            np.testing.assert_array_equal(it.h_t_raw, src.h_t_raw)
            v_kept = np.array_equal(it.h_v, src.h_v)
            a_kept = np.array_equal(it.h_a, np.zeros(D) if src.h_a is None
                                    else src.h_a)
            assert v_kept != a_kept
            swapped = it.h_a if v_kept else it.h_v
            donors = [s for s in batch if s.polarity != src.polarity
                      and np.array_equal(swapped, (np.zeros(D) if s.h_a is None
                                                   else s.h_a) if v_kept else s.h_v)]
            assert len(donors) == 1

    def test_both_swap_directions_occur(self, batch):
        rng = derived_rng(1, "forge-test")
        kept_video = 0
        trials = 300
        src = batch[0]
        for _ in range(trials):
            it = _family([src, batch[1]], rng, "mix")[0]
            kept_video += int(np.array_equal(it.h_v, src.h_v))
        assert 0.4 < kept_video / trials < 0.6

    def test_single_polarity_batch_yields_empty_family(self):
        rng = derived_rng(2, "forge-test")
        only_pos = [_mk(0, 0.5), _mk(1, 0.7)]
        assert _family(only_pos, rng, "mix") == []


class TestMask:
    def test_masked_dims_zero_rest_identical(self, batch):
        rng = derived_rng(3, "forge-test")
        by_id = {s.id: s for s in batch}
        for it in _family(batch, rng, "mask", mask_rate=0.5):
            assert it.label == 0 and it.family == "mask"
            src = by_id[it.source_id]
            for new, old in ((it.h_v, src.h_v),
                             (it.h_a, np.zeros(D) if src.h_a is None else src.h_a),
                             (it.h_t_raw, src.h_t_raw)):
                kept = new != 0.0
                np.testing.assert_array_equal(new[kept], old[kept])

    def test_mask_fraction_tracks_rate(self):
        rng = derived_rng(4, "forge-test")
        wide = Sample(id="w", h_v=np.ones(4000), h_a=np.ones(4000),
                             h_t_raw=np.ones(4000), polarity=1, sentiment=0.5,
                             origin="Original", target_tokens=encode(_VERBAL, 0.5))
        it = _family([wide], rng, "mask", mask_rate=0.3, d=4000, d_t=4000)[0]
        frac = np.mean(it.h_v == 0.0)
        assert abs(frac - 0.3) < 0.03

    def test_pathways_masked_independently(self):
        rng = derived_rng(5, "forge-test")
        wide = Sample(id="w", h_v=np.ones(2000), h_a=np.ones(2000),
                             h_t_raw=np.ones(2000), polarity=1, sentiment=0.5,
                             origin="Original", target_tokens=encode(_VERBAL, 0.5))
        it = _family([wide], rng, "mask", mask_rate=0.5, d=2000, d_t=2000)[0]
        assert not np.array_equal(it.h_v == 0.0, it.h_a == 0.0)

    def test_rate_bounds(self, batch):
        rng = derived_rng(6, "forge-test")
        for bad in (-0.2, 1.5):
            with pytest.raises(ValidationError):
                _forge(batch, rng, mask_rate=bad)

    def test_zero_rate_is_identity_on_features(self, batch):
        rng = derived_rng(6, "forge-test")
        for it, s in zip(_family(batch, rng, "mask", mask_rate=0.0), batch):
            np.testing.assert_array_equal(it.h_v, s.h_v)
            np.testing.assert_array_equal(it.h_t_raw, s.h_t_raw)
            assert it.label == 0

    def test_full_rate_zeroes_everything(self, batch):
        rng = derived_rng(6, "forge-test")
        for it in _family(batch, rng, "mask", mask_rate=1.0):
            assert not np.any(it.h_v) and not np.any(it.h_t_raw)


class TestFlip:
    def test_features_identical_polarity_inverted(self, batch):
        flips = _family(batch, derived_rng(7, "forge-test"), "flip")
        for it, s in zip(flips, batch):
            assert it.label == 0 and it.family == "flip"
            assert it.polarity == 1 - s.polarity
            np.testing.assert_array_equal(it.h_v, s.h_v)
            np.testing.assert_array_equal(it.h_t_raw, s.h_t_raw)

    def test_flip_is_an_involution_on_polarity(self, batch):
        once = _family(batch, derived_rng(7, "forge-test"), "flip")
        relabeled = [Sample(id=it.source_id, h_v=it.h_v, h_a=it.h_a,
                                   h_t_raw=it.h_t_raw, polarity=it.polarity,
                                   sentiment=s.sentiment, origin=s.origin,
                                   target_tokens=s.target_tokens)
                     for it, s in zip(once, batch)]
        twice = _family(relabeled, derived_rng(7, "forge-test"), "flip")
        for it, s in zip(twice, batch):
            assert it.polarity == s.polarity
            np.testing.assert_array_equal(it.h_v, s.h_v)


class TestForgeBatch:
    def test_family_counts(self, batch):
        fb = _forge(batch, derived_rng(7, "forge-test"))
        n = len(batch)
        assert fb.sizes == (n, n, n, n)
        assert fb.labels.shape == (4 * n,)
        for arr in (fb.rows.V, fb.rows.A, fb.rows.T, fb.rows.P):
            assert arr.shape[0] == 4 * n

    def test_labels_by_family(self, batch):
        fb = _forge(batch, derived_rng(8, "forge-test"))
        for it in (i for items in family_items(fb, batch).values() for i in items):
            assert it.label == (1 if it.family == "pos" else 0)

    def test_deterministic_for_same_stream(self, batch):
        a = _forge(batch, derived_rng(9, "forge-test"))
        b = _forge(batch, derived_rng(9, "forge-test"))
        assert a.sizes == b.sizes
        for x, y in zip((a.rows.V, a.rows.A, a.rows.T, a.rows.P, a.labels),
                        (b.rows.V, b.rows.A, b.rows.T, b.rows.P, b.labels)):
            np.testing.assert_array_equal(x, y)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError, match="empty batch"):
            _forge([], derived_rng(10, "forge-test"))

    def test_config_validated(self, batch):
        with pytest.raises(ValidationError):
            _forge(batch, derived_rng(11, "forge-test"), mask_rate=1.5)


class TestAgainstPerItemReference:
    """The array forge equals the per-item reference forge bit for bit."""

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.sizes == want.sizes
        for name in ("V", "A", "T", "P"):
            x, y = getattr(got.rows, name), getattr(want.rows, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name     # -0.0 included
        assert got.labels.tobytes() == want.labels.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mask_rate", (0.0, 0.3, 1.0))
    def test_random_batches(self, seed, mask_rate):
        pick = np.random.default_rng(seed)
        n = int(pick.integers(1, 9))
        samples = [_mk(10 * seed + i, float(pick.uniform(-1, 1)),
                       audio=bool(pick.random() < 0.7)) for i in range(n)]
        rng_lib = derived_rng(seed, "reference-forge")
        rng_ref = derived_rng(seed, "reference-forge")
        got = _forge(samples, rng_lib, mask_rate)
        want = forged_batch_from_items(
            forge_items(samples, D, rng_ref, mask_rate), D, DT)
        self._assert_same_bits(got, want)
        # the same number of draws: later steps see the same stream
        assert rng_lib.bit_generator.state == rng_ref.bit_generator.state

    def test_single_polarity_batch_and_missing_audio(self, batch):
        only_pos = [s for s in batch if s.polarity == 1]
        assert any(s.h_a is None for s in only_pos)
        got = _forge(only_pos, derived_rng(12, "forge-test"))
        want = forged_batch_from_items(
            forge_items(only_pos, D, derived_rng(12, "forge-test")), D, DT)
        assert got.sizes[FAMILIES.index("mix")] == 0
        self._assert_same_bits(got, want)


class TestMixAgainstLoop:
    """One vectorized donor draw equals two scalar draws per sample, in
    batch order: the same donors, rows and generator state afterwards."""

    @staticmethod
    def _batch(pick, n, polarity):
        V, A = pick.standard_normal((n, D)), pick.standard_normal((n, D))
        V[:, 0] = A[:, 0] = np.arange(n)          # each row names its source
        A[pick.random(n) < 0.3, 1:] = 0.0          # missing audio
        return FeatureRows(V=V, A=A, T=pick.standard_normal((n, DT)),
                           P=np.asarray(polarity, dtype=np.intp))

    def test_1200_seeded_batches(self):
        kinds = {"mixed": 0, "one polarity": 0, "size 1": 0, "size 2": 0}
        for seed in range(1200):
            pick = np.random.default_rng(seed)
            kind = list(kinds)[seed % 4]
            n = {"size 1": 1, "size 2": 2}.get(kind, int(pick.integers(3, 48)))
            pol = pick.integers(0, 2, n)
            if kind == "one polarity":
                pol[:] = pol[0]
            elif kind == "mixed":
                pol[pick.permutation(n)[:2]] = (0, 1)
            batch = self._batch(pick, n, pol)
            rng_lib = derived_rng(seed, "mix-vs-loop")
            rng_ref = derived_rng(seed, "mix-vs-loop")
            got = _mix_rows(batch, rng_lib)
            want = mix_rows_loop(batch, rng_ref)
            if want is None:
                assert len(got) == 0 and got.V.shape == (0, D)
                assert len(set(pol.tolist())) == 1
            else:
                video_from, audio_from, rows = want
                assert got.V[:, 0].astype(np.intp).tolist() == video_from.tolist()
                assert got.A[:, 0].astype(np.intp).tolist() == audio_from.tolist()
                for name in ("V", "A", "T", "P"):
                    x, y = getattr(got, name), getattr(rows, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
                kinds[kind] += 1
            assert rng_lib.bit_generator.state == rng_ref.bit_generator.state
            assert rng_lib.integers(2**63) == rng_ref.integers(2**63)
        # every kind that has a donor was drawn from (size-2 batches of one
        # polarity have none)
        assert kinds["mixed"] == 300 and kinds["one polarity"] == 0
        assert kinds["size 1"] == 0 and 0 < kinds["size 2"] < 300
