import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gframes as gf
from gframes import cli, frame_io, linalg
from gframes.errors import ParseError, SchemaError

from conftest import random_frame


def doc_for(frame, metadata=None):
    return frame_io.serialize(frame, metadata)


class TestParseSpec:
    def test_coordinate_slicing_document(self):
        F = gf.make_gon_basis(4, (2, 2))
        G, meta = frame_io.parse_spec(doc_for(F, {"name": "slices"}))
        assert meta == {"name": "slices"}
        for B, C in zip(F.blocks, G.blocks):
            np.testing.assert_array_equal(B, C)

    def test_row_length_mismatch(self):
        doc = {
            "hilbert_dim": 4,
            "blocks": [{"rows": 1, "matrix": [[[1, 0], [0, 0], [0, 0]]]}],
        }
        with pytest.raises(SchemaError):
            frame_io.parse_spec(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = {"hilbert_dim": 2,
               "blocks": [{"rows": 1, "matrix": [[[1, 0], [0, 0]]]}],
               "extra": 1}
        with pytest.raises(SchemaError):
            frame_io.parse_spec(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            frame_io.parse_spec("{not json")
        assert "line" in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_entry_rejected(self, literal):
        text = ('{"hilbert_dim": 2, "blocks": [{"rows": 1, "matrix": '
                f'[[[1, 0], [0, {literal}]]]}}]}}')
        with pytest.raises(SchemaError, match="finite"):
            frame_io.parse_spec(text)

    def test_oversized_integer_entry_rejected(self):
        text = ('{"hilbert_dim": 1, "blocks": [{"rows": 1, "matrix": '
                f'[[[1{"0" * 400}, 0]]]}}]}}')
        with pytest.raises(SchemaError):
            frame_io.parse_spec(text)

    def test_string_complex_rejected(self):
        doc = {"hilbert_dim": 1,
               "blocks": [{"rows": 1, "matrix": [["1+0j"]]}]}
        with pytest.raises(SchemaError):
            frame_io.parse_spec(json.dumps(doc))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_roundtrip_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(1, 4)))
        F = gf.GFrame(n, tuple(
            rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            for d in dims))
        G, _ = frame_io.parse_spec(frame_io.serialize(F))
        assert G.hilbert_dim == F.hilbert_dim
        for B, C in zip(F.blocks, G.blocks):
            np.testing.assert_array_equal(B, C)

    @pytest.mark.parametrize("entry, problem", [
        ("true", "pair"), ('"1"', "pair"), ("[1, 0, 0]", "pair"),
        ("[1, true]", "pair"), ('[1, "0"]', "pair"),
        (f'[1{"0" * 400}, 0]', "binary64"),
    ])
    def test_malformed_entry_is_named(self, entry, problem):
        text = ('{"hilbert_dim": 2, "blocks": [{"rows": 1, "matrix": [[[1, 0], [0, 1]]]},'
                ' {"rows": 2, "matrix": [[[1, 0], [0, 1]], [[2, 0], ' + entry + ']]}]}')
        with pytest.raises(SchemaError, match=problem) as exc:
            frame_io.parse_spec(text)
        assert str(exc.value).startswith("blocks[1].matrix[1][1]: ")

    def test_short_row_is_named(self):
        text = ('{"hilbert_dim": 2, "blocks": [{"rows": 2, '
                '"matrix": [[[1, 0], [0, 1]], [[1, 0]]]}]}')
        with pytest.raises(SchemaError) as exc:
            frame_io.parse_spec(text)
        assert str(exc.value) == "blocks[0].matrix[1]: expected 2 entries"

    def test_first_bad_entry_is_named(self):
        # a bad entry before a short row is reported first, as the entries
        # are read in order
        text = ('{"hilbert_dim": 2, "blocks": [{"rows": 2, '
                '"matrix": [[[1, 0], [false, 1]], [[1, 0]]]}]}')
        with pytest.raises(SchemaError, match=r"^blocks\[0\]\.matrix\[0\]\[1\]: "):
            frame_io.parse_spec(text)

    def test_bad_entry_is_named_before_a_later_block_structure(self):
        # the document's first error wins across blocks too: blocks[0]'s
        # entry comes before blocks[1]'s row count
        text = ('{"hilbert_dim": 2, "blocks": ['
                '{"rows": 1, "matrix": [[[1, 0], [false, 1]]]}, '
                '{"rows": 2, "matrix": [[[1, 0], [0, 1]]]}]}')
        with pytest.raises(SchemaError, match=r"^blocks\[0\]\.matrix\[0\]\[1\]: "):
            frame_io.parse_spec(text)
        good = text.replace("false", "0")
        with pytest.raises(SchemaError, match=r"^blocks\[1\]: matrix must have exactly 2 rows"):
            frame_io.parse_spec(good)

    def test_integer_entries_read_exactly(self):
        big = 2 ** 70 + 1
        text = ('{"hilbert_dim": 2, "blocks": [{"rows": 1, '
                f'"matrix": [[[1, -2], [{big}, 0.5]]]}}]}}')
        F, _ = frame_io.parse_spec(text)
        np.testing.assert_array_equal(F.blocks[0], [[1 - 2j, float(big) + 0.5j]])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.data(),
        st.one_of(st.none(), st.fixed_dictionaries(
            {"name": st.sampled_from(['x', 'has "matrix": 0 inside',
                                      '{\n  "blocks": [', 'é\u2028'])},
            optional={"description": st.text(max_size=8)})),
    )
    def test_serialize_matches_json_dumps(self, n, dims, data, metadata):
        special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e+20, 1e-7,
                                   1.7976931348623157e308, 0.1, -2.5])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        number = st.one_of(special, finite)
        blocks = tuple(
            np.array(data.draw(st.lists(number, min_size=2 * d * n,
                                        max_size=2 * d * n))).view(np.complex128)
            .reshape(d, n)
            for d in dims)
        F = gf.GFrame(n, blocks)
        doc = {"hilbert_dim": n,
               "blocks": [{"rows": B.shape[0],
                           "matrix": np.stack([B.real, B.imag], -1).tolist()}
                          for B in blocks]}
        if metadata:
            doc["metadata"] = metadata
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert frame_io.serialize(F, metadata) == expected

    def test_serialize_is_normal_form(self, rng):
        F = random_frame(rng, 3, (2, 2))
        doc = frame_io.serialize(F, {"name": "x"})
        G, meta = frame_io.parse_spec(doc)
        assert frame_io.serialize(G, meta) == doc


class TestCli:
    @pytest.fixture
    def gon_path(self, tmp_path):
        p = tmp_path / "gon4.frame"
        frame_io.save(p, gf.make_gon_basis(4, (2, 2)), {"name": "gon4"})
        return str(p)

    @pytest.fixture
    def mercedes_path(self, tmp_path, mercedes):
        p = tmp_path / "mercedes.frame"
        frame_io.save(p, mercedes, {"name": "mercedes"})
        return str(p)

    def test_classify_mercedes(self, mercedes_path, capsys):
        assert cli.main(["classify", mercedes_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["is_frame"]
        assert doc["bounds"]["is_tight"]
        assert not doc["classification"]["is_riesz_basis"]

    def test_dual_emits_verifiable_file(self, mercedes_path, tmp_path, capsys):
        out = tmp_path / "dual.frame"
        assert cli.main(["dual", mercedes_path, "--emit", str(out)]) == 0
        capsys.readouterr()
        dual, _ = frame_io.load(out)
        orig, _ = frame_io.load(mercedes_path)
        assert gf.check_dual_pair(orig, dual)

    def test_all_emits_the_canonical_dual(self, mercedes_path, mercedes,
                                          tmp_path, capsys):
        out = tmp_path / "all.frame"
        assert cli.main(["all", mercedes_path, "--emit", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "differs_from_canonical" in [c["name"] for c in doc["checks"]]
        dual, meta = frame_io.load(out)
        assert meta == {"name": "mercedes-canonical-dual"}
        assert gf.check_dual_pair(mercedes, dual)
        for B, C in zip(dual.blocks, gf.canonical_dual(mercedes).blocks):
            np.testing.assert_allclose(B, C, rtol=0, atol=1e-15)

    def test_alt_dual(self, mercedes_path, capsys):
        assert cli.main(["alt-dual", mercedes_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in doc["checks"]]
        assert "differs_from_canonical" in names
        assert doc["status"] == "pass"

    def test_perturb(self, mercedes_path, tmp_path, mercedes, capsys):
        other = tmp_path / "scaled.frame"
        frame_io.save(other, mercedes.map_blocks(lambda B: 1.01 * B))
        assert cli.main(["perturb", mercedes_path, str(other)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["perturbation"]["m_opt"] < 1e-3

    def test_coherent_identity(self, gon_path, capsys):
        code = cli.main(["coherent", gon_path, "--z", "0+0i", "--w", "0",
                         "--check", "identity", "--check", "eigen"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"K": 2, "L": 2} == doc["fock"]

    def test_parse_complex_spellings(self):
        assert cli.parse_complex("1+2i") == 1 + 2j
        assert cli.parse_complex("0.5-0.25j") == 0.5 - 0.25j
        with pytest.raises(ParseError):
            cli.parse_complex("one")
        for text in ("nan", "1e400", "1+nanj"):
            with pytest.raises(ParseError):
                cli.parse_complex(text)

    @staticmethod
    def assert_input_error(code, capsys, error):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error

    def test_bad_complex_label_is_input_error(self, gon_path, capsys):
        for label in ("abc", "nan"):
            code = cli.main(["coherent", gon_path, f"--z={label}"])
            self.assert_input_error(code, capsys, "ParseError")

    def test_non_finite_spec_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "nan.frame"
        p.write_text('{"hilbert_dim": 1, "blocks": [{"rows": 1, "matrix": [[[NaN, 0]]]}]}')
        self.assert_input_error(cli.main(["classify", str(p)]), capsys, "SchemaError")

    def test_bad_env_tolerance_is_input_error(self, mercedes_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("GFRAME_TOL", "x")
        self.assert_input_error(cli.main(["classify", mercedes_path]), capsys,
                                "UsageError")
        # an explicit --tol does not read the environment
        assert cli.main(["classify", mercedes_path, "--tol", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["tolerance"] == 1e-9

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_is_input_error(self, mercedes_path, capsys, tol):
        code = cli.main(["classify", mercedes_path, f"--tol={tol}"])
        self.assert_input_error(code, capsys, "UsageError")

    def test_env_tolerance_is_used(self, mercedes_path, capsys, monkeypatch):
        monkeypatch.setenv("GFRAME_TOL", "1e-9")
        assert cli.main(["classify", mercedes_path]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["tolerance"] == 1e-9

    @pytest.mark.parametrize("command", ["classify", "alt-dual", "all"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_empty_sample_is_input_error(self, mercedes_path, capsys, command,
                                         samples):
        code = cli.main([command, mercedes_path, f"--samples={samples}"])
        self.assert_input_error(code, capsys, "UsageError")

    @pytest.mark.parametrize("command", ["classify", "alt-dual"])
    def test_negative_seed_is_input_error(self, mercedes_path, capsys, command):
        code = cli.main([command, mercedes_path, "--seed=-1"])
        self.assert_input_error(code, capsys, "UsageError")

    def test_usage_errors_are_json(self, capsys):
        self.assert_input_error(cli.main(["bogus"]), capsys, "UsageError")
        self.assert_input_error(cli.main(["classify"]), capsys, "UsageError")

    def test_batched_draws_match_successive_draws(self):
        n, count = 5, 50
        rng = np.random.default_rng(3)
        batch = linalg.random_units(rng, n, count)
        ref = np.random.default_rng(3)
        for i in range(count):
            f = ref.standard_normal(n) + 1j * ref.standard_normal(n)
            # the norms are summed in another order: a few ulps apart
            np.testing.assert_allclose(batch[:, i], f / np.linalg.norm(f),
                                       rtol=0, atol=1e-15)
        assert rng.standard_normal() == ref.standard_normal()

    def test_batched_energies_match_blockwise(self, rng):
        F = random_frame(rng, 4, (2, 1, 3))
        X = linalg.random_units(rng, 4, 20)
        e = cli._energies(gf.analysis(F), X)
        for i in range(20):
            ref = sum(np.linalg.norm(B @ X[:, i]) ** 2 for B in F.blocks)
            assert e[i] == pytest.approx(ref, rel=1e-13)

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gf.__file__)))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gframes.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["classify", "/nonexistent.frame"]) == 2
        capsys.readouterr()

    def test_schema_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.frame"
        p.write_text('{"hilbert_dim": 2}')
        assert cli.main(["classify", str(p)]) == 2
        capsys.readouterr()

    def test_non_frame_input_fails_dual_numerically(self, tmp_path, capsys):
        p = tmp_path / "zero.frame"
        frame_io.save(p, gf.GFrame(2, (np.zeros((2, 2)),)))
        assert cli.main(["dual", str(p)]) == 3
        capsys.readouterr()

    def test_human_output(self, mercedes_path, capsys):
        assert cli.main(["classify", mercedes_path, "--human"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "subject" in out

    def test_seeded_reports_byte_identical(self, mercedes_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["all", mercedes_path, "--seed", "7", "--out", str(a)]) == 0
        assert cli.main(["all", mercedes_path, "--seed", "7", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_classify_at_1e100_matches_unscaled(self, tmp_path, capsys):
        """A random 3-block (2 x 4) complex frame scaled by 1e100 gets the
        flags it has at scale 1; its block Grams no longer overflow into a
        false orthonormal-set answer."""
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                  for _ in range(3)]
        reports = []
        for c in (1.0, 1e100):
            p = tmp_path / f"scaled-{c:g}.frame"
            frame_io.save(p, gf.GFrame(4, tuple(c * B for B in blocks)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["classify", str(p)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["classification"] == reports[0]["classification"]
        assert reports[1]["classification"]["is_orthonormal_set"] is False
