"""Tests for synthetic scene generation and PGM dataset storage."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hcfnet.data import (
    _MAX_COVERAGE,
    Sample,
    SyntheticConfig,
    generate_dataset,
    generate_sample,
    load_dataset,
    read_image,
    read_pgm,
    save_dataset,
    write_pgm,
)
from hcfnet.errors import ConfigError, FileFormatError


class TestSyntheticConfig:
    def test_default_is_valid(self):
        SyntheticConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"height": 4},
            {"width": 4},
            {"height": 7},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticConfig(**kwargs).validate()


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_sample(SyntheticConfig(seed=5), 3)
        b = generate_sample(SyntheticConfig(seed=5), 3)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert a.sample_id == b.sample_id

    def test_index_and_seed_change_scene(self):
        base = generate_sample(SyntheticConfig(seed=5), 3)
        other_index = generate_sample(SyntheticConfig(seed=5), 4)
        other_seed = generate_sample(SyntheticConfig(seed=6), 3)
        assert np.abs(base.image - other_index.image).max() > 0
        assert np.abs(base.image - other_seed.image).max() > 0

    def test_shapes_and_ranges(self):
        sample = generate_sample(SyntheticConfig(height=32, width=48, seed=1), 0)
        assert sample.image.shape == (1, 32, 48)
        assert sample.mask.shape == (1, 32, 48)
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
        assert set(np.unique(sample.mask)) <= {0.0, 1.0}

    def test_quantized_to_256_levels(self):
        sample = generate_sample(SyntheticConfig(seed=2), 0)
        scaled = sample.image * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    @given(st.integers(0, 500))
    def test_coverage_cap_per_sample(self, index):
        cfg = SyntheticConfig(seed=9)
        sample = generate_sample(cfg, index)
        assert sample.mask.sum() <= _MAX_COVERAGE * cfg.height * cfg.width

    def test_mean_coverage_over_corpus(self):
        samples = generate_dataset(SyntheticConfig(seed=0), 100)
        mean_cov = np.mean([s.mask.mean() for s in samples])
        assert 0.0001 <= mean_cov <= 0.005

    def test_objects_brighter_than_surroundings(self):
        # Disk pixels get an additive boost of at least 0.3 (clipped at 1).
        samples = generate_dataset(SyntheticConfig(seed=4), 20)
        lifted = [
            s.image[s.mask > 0.5].mean() - s.image[s.mask <= 0.5].mean()
            for s in samples
            if s.mask.sum() > 0
        ]
        assert np.mean(lifted) > 0.2

    # sha256 of the concatenated image and mask arrays; any change to the
    # scene recipe or its random draws changes them.
    @pytest.mark.parametrize(
        "config,count,images,masks",
        [
            (
                SyntheticConfig(seed=156),
                8,
                "052f7bba8123a5e8acc4fba03a2d6f7cd4f73456db555003db68b9349890a6e9",
                "2830844f8c8f14c196056ad1b229a374c477b898191af3a86f020be4d5d5ed3e",
            ),
            (
                SyntheticConfig(height=48, width=80, seed=5),
                4,
                "2260f0b9f83452b42eb648dbd12003ed7b098b7b61f34318d66b4e69c339c94a",
                "7f8e9d0857ef8ea01b15da839adac04c06fb3c4e30db588990ec8ae33d9dc45c",
            ),
        ],
        ids=["64x64", "48x80"],
    )
    def test_scenes_pinned(self, config, count, images, masks):
        samples = generate_dataset(config, count)
        assert hashlib.sha256(b"".join(s.image.tobytes() for s in samples)).hexdigest() == images
        assert hashlib.sha256(b"".join(s.mask.tobytes() for s in samples)).hexdigest() == masks

    def test_dataset_count_validated(self):
        with pytest.raises(ConfigError):
            generate_dataset(SyntheticConfig(), 0)


def _pgm_file(head):
    width, height, maxval, sep = head
    size = width * height
    return st.binary(min_size=max(size - 1, 0), max_size=size + 1).map(
        lambda payload: b"P5\n%d %d\n# c\n%d" % (width, height, maxval) + sep + payload
    )


def _overwrite(args):
    blob, at, byte = args
    at %= len(blob)
    return blob[:at] + bytes([byte]) + blob[at + 1 :]


# A valid P5 file at any maxval, with its samples at or below it.
_any_maxval_pgms = st.integers(1, 255).flatmap(
    lambda maxval: st.tuples(
        st.just(maxval),
        hnp.arrays(
            np.uint8,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
            elements=st.integers(0, maxval),
        ),
    )
)

_valid_pgms = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)).map(
    lambda a: b"P5\n%d %d\n255\n" % (a.shape[1], a.shape[0]) + a.tobytes()
)
# Arbitrary bytes, valid files, valid files with one byte overwritten, and
# headers (some invalid) over payloads within a byte of the declared size.
pgm_blobs = st.one_of(
    st.binary(max_size=64),
    _valid_pgms,
    st.tuples(_valid_pgms, st.integers(0, 1 << 20), st.integers(0, 255)).map(_overwrite),
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.one_of(st.integers(0, 300), st.just(255)),
        st.sampled_from([b"\n", b" ", b"x", b""]),
    ).flatmap(_pgm_file),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.pgm")


class TestPgm:
    def test_round_trip(self, tmp_path):
        values = np.arange(48, dtype=np.uint8).reshape(6, 8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, values)
        np.testing.assert_array_equal(read_pgm(path), values)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ConfigError):
            write_pgm(str(tmp_path / "bad.pgm"), np.zeros((4, 4)))

    def test_header_comments_parsed(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
        out = read_pgm(str(path))
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.reshape(-1), np.frombuffer(payload, np.uint8))

    @pytest.mark.parametrize(
        "header",
        [b"P5\n# a\n # b\n3 2\n255\n", b"P5 #a\n\n#b\n3\n#c\n\t2 # d\n # e\n255\n"],
    )
    def test_header_comment_runs_parsed(self, tmp_path, header):
        # Comments may stand wherever whitespace may, in any number of runs.
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(header + payload)
        out = read_pgm(str(path))
        np.testing.assert_array_equal(out, np.frombuffer(payload, np.uint8).reshape(2, 3))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FileFormatError):
            read_pgm(str(path))

    def test_rejects_large_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            read_pgm(str(path))

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FileFormatError):
            read_pgm(str(path))

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\nnot a number\n")
        with pytest.raises(FileFormatError):
            read_pgm(str(path))

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P5\n4 0\n255\n"])
    def test_rejects_zero_extent(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header)
        with pytest.raises(FileFormatError, match="extents must be positive"):
            read_pgm(str(path))

    def test_rejects_sample_above_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x0f\xff")
        with pytest.raises(FileFormatError, match="exceeds maxval 15"):
            read_pgm(str(path))

    @pytest.mark.parametrize(
        "blob", [b"P5\n1 1\n255x\x00", b"P5\n1 1\n255", b"P5\n1234567890 1\n255\n\x00"]
    )
    def test_rejects_bad_header_end_or_oversized_field(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(FileFormatError, match="malformed PGM header"):
            read_pgm(str(path))

    @given(pgm_blobs)
    def test_arbitrary_bytes_load_or_fail_closed(self, fuzz_path, blob):
        with open(fuzz_path, "wb") as fh:
            fh.write(blob)
        try:
            image = read_pgm(fuzz_path)
        except FileFormatError:
            return
        assert image.dtype == np.uint8 and image.ndim == 2 and image.size >= 1

    @given(_any_maxval_pgms)
    def test_read_image_scales_by_maxval(self, fuzz_path, case):
        maxval, samples = case
        with open(fuzz_path, "wb") as fh:
            fh.write(b"P5\n%d %d\n%d\n" % (samples.shape[1], samples.shape[0], maxval))
            fh.write(samples.tobytes())
        image = read_image(fuzz_path)
        assert image.dtype == np.float64 and image.shape == samples.shape
        assert ((image >= 0.0) & (image <= 1.0)).all()
        np.testing.assert_array_equal(image == 1.0, samples == maxval)
        np.testing.assert_array_equal(read_pgm(fuzz_path), samples)


class TestDatasetStorage:
    def test_save_load_round_trip_exact(self, tmp_path):
        samples = generate_dataset(SyntheticConfig(seed=7), 4)
        save_dataset(samples, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert [s.sample_id for s in loaded] == [s.sample_id for s in samples]
        for orig, back in zip(samples, loaded):
            np.testing.assert_array_equal(orig.image, back.image)
            np.testing.assert_array_equal(orig.mask, back.mask)

    def test_sorted_by_name(self, tmp_path):
        samples = [
            Sample(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)), "b-sample"),
            Sample(np.ones((1, 8, 8)), np.zeros((1, 8, 8)), "a-sample"),
        ]
        save_dataset(samples, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert [s.sample_id for s in loaded] == ["a-sample", "b-sample"]

    def test_missing_mask_rejected(self, tmp_path):
        samples = generate_dataset(SyntheticConfig(seed=8), 1)
        save_dataset(samples, str(tmp_path))
        (tmp_path / f"{samples[0].sample_id}_mask.pgm").unlink()
        with pytest.raises(FileFormatError):
            load_dataset(str(tmp_path))

    def test_mask_binarised_at_half_its_maxval(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n4 1\n255\n" + bytes([0, 60, 200, 255]))
        (tmp_path / "a_mask.pgm").write_bytes(b"P5\n4 1\n1\n" + bytes([0, 1, 1, 0]))
        (sample,) = load_dataset(str(tmp_path))
        np.testing.assert_array_equal(sample.mask, [[[0.0, 1.0, 1.0, 0.0]]])
        np.testing.assert_array_equal(sample.image, [[[0.0, 60 / 255, 200 / 255, 1.0]]])

    @pytest.mark.parametrize("maxval", [2, 15, 254, 255])
    def test_mask_threshold_is_above_half(self, tmp_path, maxval):
        values = np.arange(maxval + 1, dtype=np.uint8)[None]
        (tmp_path / "a.pgm").write_bytes(b"P5\n%d 1\n255\n" % values.size + values.tobytes())
        header = b"P5\n%d 1\n%d\n" % (values.size, maxval)
        (tmp_path / "a_mask.pgm").write_bytes(header + values.tobytes())
        (sample,) = load_dataset(str(tmp_path))
        np.testing.assert_array_equal(sample.mask[0], values > maxval / 2)

    def test_extent_mismatch_rejected(self, tmp_path):
        write_pgm(str(tmp_path / "a.pgm"), np.zeros((16, 16), np.uint8))
        write_pgm(str(tmp_path / "a_mask.pgm"), np.zeros((8, 8), np.uint8))
        mismatch = r"a\.pgm is 16x16 but its mask .*a_mask\.pgm is 8x8"
        with pytest.raises(FileFormatError, match=mismatch):
            load_dataset(str(tmp_path))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_dataset(str(tmp_path))
