import copy
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import gframes as gf
from gframes import cli, coherent, frame_io, frames, linalg
from gframes.errors import ParseError, SchemaError, TruncationTooSevere

from conftest import (conditioned_frame, count_inverse_roots, random_frame, redundant_frame,
                      traced_peak)


# the modules every `gframe` subcommand loads, and those each one adds
CLI_BASE_MODULES = {"gframes.cli", "gframes.errors", "gframes.frame_io",
                    "gframes.frames", "gframes.linalg"}
CLI_LAYER_MODULES = {
    "classify": set(),
    "dual": set(),
    "alt-dual": {"gframes.duality"},
    "all": {"gframes.duality"},
    "perturb": {"gframes.perturbation"},
    "coherent": {"gframes.coherent", "numpy.polynomial"},
}

# the package's exported names
EXPORTED = sorted("""
    Classification FrameBounds GFrame analysis canonical_dual
    check_biorthogonal check_dual_pair classify frame_bounds frame_operator
    make_gon_basis make_griesz parseval_transform
    BicoherentFamily CoherentState FockStructure LadderPair bicoherent_family
    build_fock coherent_state ladder_ops quadrature_identity truncation_defect
    uncertainty_product
    check_similar construct_alternate_dual dual_norm_decomposition
    gram_characterization
    GavrutaReport PerturbationReport gavruta_check one_sided_M optimal_M
""".split())


def doc_for(frame, metadata=None):
    return frame_io.serialize(frame, metadata)


def compact(doc):
    """The text the writers produce for doc: compact JSON, sorted keys."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def block_doc(F, metadata=None):
    """The document of F as json.dumps would be given it."""
    doc = {"hilbert_dim": F.hilbert_dim,
           "blocks": [{"rows": B.shape[0],
                       "matrix": np.stack([B.real, B.imag], -1).tolist()}
                      for B in F.blocks]}
    if metadata:
        doc["metadata"] = metadata
    return doc


# one-point corruptions of a valid spec: an entry replaced by a literal,
# a short row, a wrong row count and an unknown block field
BAD_LITERALS = ["true", '"1"', "[1,0,0]", "NaN", "1e400"]
CORRUPTIONS = BAD_LITERALS + ["short row", "rows", "unknown field"]


@pytest.fixture(scope="module")
def tall():
    """A seeded 512 x 256 frame in blocks of 1-4 rows, and its document
    written by json.dumps."""
    rng = np.random.default_rng(512)
    dims = []
    while sum(dims) < 512:
        dims.append(min(int(rng.integers(1, 5)), 512 - sum(dims)))
    F = random_frame(rng, 256, dims)
    return F, compact(block_doc(F, {"name": "tall"}))


def fresh_python(code, *args):
    """Run `code` in a fresh interpreter that imports this gframes; return
    its stdout, failing the test on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gf.__file__)))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPackageSurface:
    def test_all_lists_the_exported_names(self):
        assert sorted(gf.__all__) == EXPORTED

    @pytest.mark.parametrize("name", EXPORTED)
    def test_name_is_its_modules_object(self, name):
        obj = getattr(gf, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("gframes.")
        assert getattr(home, name) is obj
        # resolved through the module, never copied into the package
        assert name not in vars(gf)

    def test_star_import_and_dir(self):
        ns = {}
        exec("from gframes import *", ns)
        assert all(ns[name] is getattr(gf, name) for name in EXPORTED)
        assert set(EXPORTED) <= set(dir(gf))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            gf.nope

    def test_bare_import_loads_no_layer(self):
        fresh_python(
            "import sys\n"
            "import gframes\n"
            "assert not [m for m in sys.modules if m.startswith('gframes.')]\n"
            "assert gframes.coherent.build_fock is gframes.build_fock\n"
            "for m in ('frames', 'coherent', 'duality', 'perturbation',\n"
            "          'linalg', 'errors'):\n"
            "    assert getattr(gframes, m) is sys.modules['gframes.' + m]\n")


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

    @seed(2701)
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

    @seed(2701)
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
        assert frame_io.serialize(F, metadata) == compact(doc)

    def test_serialize_is_normal_form(self, rng):
        F = random_frame(rng, 3, (2, 2))
        doc = frame_io.serialize(F, {"name": "x"})
        G, meta = frame_io.parse_spec(doc)
        assert frame_io.serialize(G, meta) == doc

    def test_any_whitespace_reads_as_the_written_form(self, rng):
        # specs written in the indent=2 layout, and with any whitespace
        # between tokens, read back to the same bits and metadata
        F = random_frame(rng, 3, (2, 1, 3))
        F = F.map_blocks(lambda B: np.where(np.abs(B) < 0.2, -0.0, B))
        written = frame_io.serialize(F, {"name": "w", "description": "a b"})
        doc = json.loads(written)
        assert written == compact(doc)
        indented = json.dumps(doc, indent=2, sort_keys=True)
        spaced = re.sub(r"[][{},:]", lambda m: (
            m.group() + "".join(rng.choice(list(" \t\r\n"), rng.integers(0, 4)))),
            written)
        for text in (indented, " \n" + spaced):
            G, meta = frame_io.parse_spec(text)
            assert [B.tobytes() for B in G.blocks] == [B.tobytes() for B in F.blocks]
            assert frame_io.serialize(G, meta) == written


class TestOnePassReader:
    """parse_spec reads every block's entries into one matrix, in runs; the
    per-block reader (frame_io._read_block) reads only a run that fails, or
    the block whose structure fails, and so names the document's first
    error."""

    @seed(2701)
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(CORRUPTIONS), st.data())
    def test_agrees_with_the_per_block_reader(self, seed, corruption, data):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        # mostly one-row blocks, as an ordinary frame has
        dims = [1 if rng.random() < 0.9 else int(rng.integers(2, 4))
                for _ in range(int(rng.integers(1, 400)))]
        T = rng.standard_normal((sum(dims), n)) + 1j * rng.standard_normal((sum(dims), n))
        T[rng.random(T.shape) < 0.1] = -0.0
        F = gf.GFrame(n, tuple(np.split(T, np.cumsum(dims)[:-1])))
        doc = block_doc(F)
        # some entries as JSON integers, which read exactly
        for blk in doc["blocks"]:
            if rng.random() < 0.1:
                blk["matrix"][0][0] = [int(rng.integers(-9, 9)), 2 ** 60]
        good = json.dumps(doc)
        with mock.patch.object(frame_io, "_read_block",
                               side_effect=AssertionError("per-block reader ran")):
            G, _ = frame_io.parse_spec(good)
        expected = json.loads(good)
        want = np.array([e for b in expected["blocks"] for row in b["matrix"] for e in row],
                        dtype=np.float64).view(np.complex128).reshape(T.shape)
        assert G.matrix.tobytes() == want.tobytes()
        assert G.block_dims == tuple(dims)
        assert all(np.shares_memory(B, G.matrix) for B in G.blocks)

        j = data.draw(st.integers(0, len(dims) - 1), label="block")
        r = data.draw(st.integers(0, dims[j] - 1), label="row")
        c = data.draw(st.integers(0, n - 1), label="entry")
        bad = copy.deepcopy(doc)
        blk = bad["blocks"][j]
        if corruption in BAD_LITERALS:
            blk["matrix"][r][c] = "@@"
        elif corruption == "short row":
            del blk["matrix"][r][-1]
        elif corruption == "rows":
            blk["rows"] += data.draw(st.sampled_from([-1, 1]), label="rows")
        else:
            blk["extra"] = 0
        text = json.dumps(bad).replace('"@@"', corruption)
        with pytest.raises(SchemaError) as read:
            frame_io.parse_spec(text)
        with pytest.raises(SchemaError) as oracle:
            for i, blk in enumerate(json.loads(text)["blocks"]):
                frame_io._read_block(blk, n, f"blocks[{i}]")
        assert str(read.value) == str(oracle.value)
        assert str(read.value).startswith(f"blocks[{j}]")

    @pytest.mark.parametrize("corruption", ["[true,0]", "unknown field"])
    def test_only_the_failing_run_is_read_block_by_block(self, corruption):
        """A bad last block costs the per-block reader the blocks of the
        last run at most, not every block of the document."""
        n, count = 32, 400
        rng = np.random.default_rng(400)
        T = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        doc = block_doc(gf.GFrame(n, tuple(np.split(T, count))))
        if corruption == "unknown field":
            doc["blocks"][-1]["extra"] = 0
        else:
            doc["blocks"][-1]["matrix"][0][5] = "@@"
        text = json.dumps(doc).replace('"@@"', corruption)
        *_, (j, k, _, _) = frame_io._runs((1,) * count, n)
        assert 1 < k - j < count
        with mock.patch.object(frame_io, "_read_block",
                               wraps=frame_io._read_block) as read_block:
            with pytest.raises(SchemaError, match=r"^blocks\[399\]"):
                frame_io.parse_spec(text)
        assert 1 <= read_block.call_count <= k - j

    @pytest.mark.parametrize("run", [1, 7, 64, 4096])
    def test_runs_write_and_read_the_same_text(self, run, rng, monkeypatch):
        """Runs of any size over blocks of mixed heights, down to one block
        per run, write json.dumps's text and read it back bit for bit."""
        dims = tuple(int(d) for d in rng.integers(1, 4, size=120))
        F = random_frame(rng, 3, dims)
        F = F.map_blocks(lambda B: np.where(np.abs(B) < 0.05, -0.0, B))
        monkeypatch.setattr(frame_io, "_RUN", run)
        text = frame_io.serialize(F, {"name": "runs"})
        assert text == compact(block_doc(F, {"name": "runs"}))
        G, meta = frame_io.parse_spec(text)
        assert G.matrix.tobytes() == F.matrix.tobytes()
        assert G.block_dims == dims and meta == {"name": "runs"}

    def test_peak_is_the_document_and_the_matrix(self, tall):
        """Reading holds the document, T and one run: within two m x n
        complex arrays of json.loads's own peak on the same text."""
        F, text = tall
        m, n = F.matrix.shape
        loads_peak, _ = traced_peak(lambda: json.loads(text))
        peak, (G, _) = traced_peak(lambda: frame_io.parse_spec(text))
        assert G.matrix.tobytes() == F.matrix.tobytes()
        assert peak <= loads_peak + 2 * m * n * 16

    @pytest.mark.parametrize("text", [
        '{"hilbert_dim": 1, "blocks": [{"rows": 1, "matrix": [[[1, 0]]]}]}',
        '{"hilbert_dim": 1, "blocks": [{"rows": 1, "matrix": [[[1, true]]]}]}',
        "{not json",
    ], ids=["valid", "schema-error", "parse-error"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_paused_then_left_as_found(self, text, enabled, monkeypatch):
        loads, seen = json.loads, []
        monkeypatch.setattr(json, "loads",
                            lambda *a, **k: seen.append(gc.isenabled()) or loads(*a, **k))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                frame_io.parse_spec(text)
            except (ParseError, SchemaError):
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


class TestWriters:
    BAD_METADATA = [{"author": "x"}, {"name": 3}, {"description": None},
                    ["name"], {"name": object()}]

    @pytest.mark.parametrize("metadata", BAD_METADATA)
    def test_writers_refuse_what_the_reader_refuses(self, metadata, mercedes,
                                                   tmp_path):
        with pytest.raises(SchemaError) as written:
            frame_io.serialize(mercedes, metadata)
        path = tmp_path / "new.frame"
        with pytest.raises(SchemaError, match=re.escape(str(written.value))):
            frame_io.save(path, mercedes, metadata)
        assert not path.exists()
        try:
            text = json.dumps({"hilbert_dim": 2, "blocks": [
                {"rows": 1, "matrix": [[[1, 0], [0, 0]]]}], "metadata": metadata})
        except TypeError:
            return      # no JSON document carries this metadata
        with pytest.raises(SchemaError) as read:
            frame_io.parse_spec(text)
        assert str(read.value) == str(written.value)

    def test_failed_save_leaves_the_file_as_it_was(self, mercedes, tmp_path):
        path = tmp_path / "mercedes.frame"
        frame_io.save(path, mercedes, {"name": "mercedes"})
        before = path.read_bytes()
        with pytest.raises(SchemaError):
            frame_io.save(path, mercedes.map_blocks(lambda B: 2 * B),
                          {"name": object()})
        assert path.read_bytes() == before

    @pytest.mark.parametrize("n", [np.int64(2), 2.0])
    def test_integral_dims_of_any_type_are_written_and_read(self, n, tmp_path):
        F = gf.GFrame(n, (np.eye(2), np.ones((1, 2))))
        text = frame_io.serialize(F)
        path = tmp_path / "f.frame"
        frame_io.save(path, F)
        assert path.read_text(encoding="utf-8") == text
        G, _ = frame_io.load(path)
        assert G.hilbert_dim == 2 and G.block_dims == (2, 1)
        np.testing.assert_array_equal(G.matrix, F.matrix)

    def test_serialize_holds_the_text_twice(self, tall):
        # the block texts and their join, plus one block's working set
        F, expected = tall
        peak, text = traced_peak(lambda: frame_io.serialize(F, {"name": "tall"}))
        assert text == expected
        assert peak <= 2.05 * len(text) + 64 * 1024

    def test_save_streams_the_text(self, tall, tmp_path):
        F, expected = tall
        path = tmp_path / "tall.frame"
        peak, _ = traced_peak(lambda: frame_io.save(path, F, {"name": "tall"}))
        assert path.read_text(encoding="utf-8") == expected
        assert peak < 1024 * 1024


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

    @pytest.mark.parametrize("label", ["1e200", "1e308+1e308i", "1.5e308+1.5e308i"])
    def test_huge_label_is_too_severe_a_truncation(self, label, gon_path, capsys):
        """A finite label whose |z|^2 overflows a float needs more levels
        than any truncation has, on either axis, with no warning: exit 3
        through the CLI, as for --z=30."""
        z = cli.parse_complex(label)
        gon, _ = frame_io.load(gon_path)
        fs = coherent.build_fock(gon)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a, b in ((z, 0j), (0j, z)):
                assert coherent.truncation_defect(a, b, 4, 4) == 1.0
                assert max(coherent.required_truncation(a, b)) == 100_000
                for build in (coherent.coherent_state, coherent.uncertainty_product):
                    with pytest.raises(TruncationTooSevere):
                        build(fs, a, b)
                with pytest.raises(TruncationTooSevere):
                    coherent.bicoherent_family(gon, a, b)
            for check in ("eigen", "uncertainty"):
                code = cli.main(["coherent", gon_path, f"--z={label}", "--check", check])
                captured = capsys.readouterr()
                assert code == 3 and captured.out == ""
                assert json.loads(captured.err)["error"] == "TruncationTooSevere"

    def test_label_over_the_budget_is_refused_by_every_check(self, tmp_path, capsys):
        """On the rotated basis in 8 blocks of 8 that CI's smoke step uses,
        --z=0.53 has a defect of 7.5e-10, over the one budget of 1e-10:
        --check eigen, --check uncertainty and both refuse it alike, with
        exit 3, the same error and nothing on stdout."""
        p = tmp_path / "gon64.frame"
        rotation = linalg.random_unitary(64, np.random.default_rng(1))
        frame_io.save(p, gf.make_gon_basis(64, (8,) * 8, rotation=rotation))
        errors = []
        for checks in (["eigen"], ["uncertainty"], ["eigen", "uncertainty"]):
            argv = ["coherent", str(p), "--z=0.53"]
            code = cli.main(argv + [a for c in checks for a in ("--check", c)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == errors[2]
        assert json.loads(errors[0]) == {
            "error": "TruncationTooSevere",
            "detail": "defect 7.492e-10 exceeds 1.0e-10; need K >= 9, L >= 1"}

    @pytest.mark.parametrize("command", ["all", "dual"])
    def test_overflowing_canonical_dual_is_numerical(self, command, tmp_path, capsys):
        """Two 1 x 1 blocks [[2.5e-316]]: a frame whose canonical dual, about
        2.8e315, is not representable.  Both commands exit 3 with NonFinite
        naming the overflow, write nothing to stdout and warn nothing."""
        p = tmp_path / "tiny.frame"
        frame_io.save(p, gf.GFrame(1, (np.array([[2.5e-316]]),) * 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, str(p)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "NonFinite", "detail": "canonical dual overflows: sigma_min = 3.536e-316"}

    @pytest.mark.parametrize("name", sorted(cli._THRESHOLDS))
    def test_non_finite_measurements_keep_their_verdicts(self, name):
        """NaN fails every check, differs_from_canonical included; +inf
        passes only differs_from_canonical and -inf every other check."""
        differs = name == "differs_from_canonical"
        for value, verdict in ((np.nan, False), (np.inf, differs), (-np.inf, not differs)):
            doc = {"checks": []}
            cli._check(doc, name, value)
            assert doc["checks"][0]["pass"] is verdict

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

    def test_sample_blocks_are_one_draw(self):
        n = 3
        width = linalg.SAMPLE_CHUNK // n
        count = 2 * width + 7
        rng = np.random.default_rng(4)
        blocks = list(linalg.sample_units(rng, n, count))
        assert [B.shape[1] for B in blocks] == [width] * 2 + [7]
        ref = np.random.default_rng(4)
        np.testing.assert_array_equal(np.hstack(blocks),
                                      linalg.random_units(ref, n, count))
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("command", ["classify", "alt-dual", "perturb"])
    def test_sampling_checks_run_in_blocks(self, command, tmp_path, capsys,
                                           monkeypatch):
        """2 blocks + 7 samples give the report of one unchunked draw, and
        the traced peak is that of a single block's samples."""
        rng = np.random.default_rng(11)
        n = 16
        T = np.vstack([linalg.random_unitary(n, rng),
                       2.0 * linalg.random_unitary(n, rng)])
        paths = []
        for name, scale in (("f", 1.0), ("g", 1.01)):
            paths.append(str(tmp_path / f"{name}.frame"))
            frame_io.save(paths[-1], gf.GFrame(n, tuple(np.split(scale * T, 8))))
        files = paths if command == "perturb" else paths[:1]

        def run(samples):
            tracemalloc.start()
            try:
                code = cli.main([command, *files, "--samples", str(samples)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = capsys.readouterr().out
            assert code == 0, out
            return out, peak

        width = linalg.SAMPLE_CHUNK // n
        count = 2 * width + 7
        _, one_block = run(width)
        chunked, peak = run(count)
        assert peak <= 1.1 * one_block
        monkeypatch.setattr(linalg, "SAMPLE_CHUNK", count * n)
        unchunked, _ = run(count)
        assert chunked == unchunked

    def test_sample_blocks_are_bounded_by_entries(self):
        """A block holds at most SAMPLE_CHUNK entries whatever the dimension:
        2000 samples at n = 512 would be 16 MB as one block."""
        peak, _ = traced_peak(lambda: linalg.sampled_max(
            np.random.default_rng(8), 512, 2000, lambda F: np.abs(F[0])))
        assert peak < 8 * 2 ** 20

    def test_batched_energies_match_blockwise(self, rng):
        F = random_frame(rng, 4, (2, 1, 3))
        X = linalg.random_units(rng, 4, 20)
        e = cli._energies(gf.analysis(F), X)
        for i in range(20):
            ref = sum(np.linalg.norm(B @ X[:, i]) ** 2 for B in F.blocks)
            assert e[i] == pytest.approx(ref, rel=1e-13)

    def test_import_leaves_scipy_out(self):
        fresh_python("import gframes.cli, sys; assert 'scipy' not in sys.modules")

    @pytest.mark.parametrize("command", sorted(CLI_LAYER_MODULES))
    def test_subcommand_loads_only_its_modules(self, command, mercedes_path,
                                                gon_path):
        """Each subcommand, run in a fresh interpreter, imports the CLI's
        base modules plus the layer it calls, and never scipy.  The Mercedes
        frame is redundant, so `all` runs its alternate-dual suite."""
        argv = {"perturb": [mercedes_path, mercedes_path],
                "coherent": [gon_path]}.get(command, [mercedes_path])
        out = fresh_python(
            "import contextlib, io, json, sys\n"
            "from gframes import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code] + sorted(\n"
            "    m for m in sys.modules if m.startswith('gframes.')\n"
            "    or m in ('numpy.polynomial', 'scipy'))))",
            command, *argv)
        code, *loaded = json.loads(out)
        assert code == 0
        assert set(loaded) == CLI_BASE_MODULES | CLI_LAYER_MODULES[command]

    @pytest.mark.parametrize("other", ["two-row-block", "c4"])
    def test_perturb_shape_mismatch_is_input_error(self, other, mercedes_path,
                                                   gon_path, tmp_path, capsys):
        """perturb on two specs of different block dimensions, or of
        different Hilbert dimensions, is an input error: nothing numerical
        ran."""
        if other == "c4":
            path = gon_path
        else:
            path = str(tmp_path / "two-row.frame")
            frame_io.save(path, gf.GFrame(2, (np.eye(2), np.ones((1, 2)))))
        code = cli.main(["perturb", mercedes_path, path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ShapeMismatch"

    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["classify", "/nonexistent.frame"]) == 2
        capsys.readouterr()

    def test_schema_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.frame"
        p.write_text('{"hilbert_dim": 2}')
        assert cli.main(["classify", str(p)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("case", ["not-utf8", "deep", "huge-dim", "long-int",
                                      "out", "emit"])
    def test_bad_input_leaves_as_one_json_error(self, case, gon_path, tmp_path,
                                                capsys):
        """Bytes that are not UTF-8, JSON nested beyond the recursion limit,
        a hilbert_dim of 10^400 with short rows, an integer beyond Python's
        int-string limit, and --out or --emit into a missing directory."""
        p = tmp_path / "bad.frame"
        argv, error = ["classify", str(p)], "ParseError"
        if case == "not-utf8":
            p.write_bytes(b'{"hilbert_dim": 1, "blocks": \xff}')
        elif case == "deep":
            p.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "huge-dim":
            p.write_text('{"hilbert_dim": 1' + "0" * 400
                         + ', "blocks": [{"rows": 1, "matrix": [[[1, 0]]]}]}')
            error = "SchemaError"
        elif case == "long-int":
            p.write_text('{"hilbert_dim": 1' + "0" * 5000 + ', "blocks": []}')
        else:
            missing = str(tmp_path / "missing" / "x.json")
            argv = (["classify", gon_path, "--out", missing] if case == "out"
                    else ["dual", gon_path, "--emit", missing])
            error = "io"
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert json.loads(err)["error"] == error

    def test_coherent_rejects_a_loose_orthonormal_set(self, tmp_path, capsys):
        """Two equal rows in C^2 pass the orthonormal-set rule at --tol 1.5
        but are no basis, so build_fock refuses them as classify does."""
        p = tmp_path / "singular.frame"
        frame_io.save(p, gf.GFrame(2, (np.array([[1.0, 0.0]]),) * 2))
        assert cli.main(["coherent", str(p), "--tol", "1.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "NotOnBasis"

    def test_coherent_refuses_a_perturbed_basis_at_a_loose_tol(self, tmp_path, capsys):
        """A rotated basis in 6 blocks of 6 plus 0.03 E / 4, E complex
        Gaussian, is no orthonormal basis.  build_fock's rule reads TOL_EQ
        whatever --tol says, so --tol 0.3 refuses it as the default does, and
        uncertainty_a, which takes C†v = c / ||c|| for a unitary C, never
        reports a pass it did not measure."""
        rng = np.random.default_rng(0)
        gon = gf.make_gon_basis(36, (6,) * 6, rotation=linalg.random_unitary(36, rng))
        E = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        p = tmp_path / "perturbed.frame"
        frame_io.save(p, gf.GFrame(36, tuple(np.split(gon.matrix + 0.03 * E / 4, 6))))
        argv = ["coherent", str(p), "--check", "identity", "--check", "uncertainty",
                "--z=0.05", "--tol", "0.3"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "NotOnBasis"

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

    @pytest.mark.parametrize("spec, tol", [("onset3", "0.3"), ("onset3", "0.9"),
                                           ("onset3", "1.5"), ("onset3", "env"),
                                           ("singular", "1.5")])
    def test_loose_tolerance_reports_non_frames(self, tmp_path, capsys,
                                                monkeypatch, spec, tol):
        """Three orthonormal rows in C^4 and two equal rows in C^2 pass the
        orthonormal-set rule at a loose --tol, but are no frames, so neither
        is an orthonormal basis.  classify reports that, and all reports the
        same classification with no duality suite, since no dual exists."""
        if spec == "onset3":
            U = linalg.random_unitary(4, np.random.default_rng(5))
            frame = gf.GFrame(4, tuple(np.split(U[:3], 3)))
        else:
            frame = gf.GFrame(2, (np.array([[1.0, 0.0]]),) * 2)
        p = tmp_path / f"{spec}.frame"
        frame_io.save(p, frame, {"name": spec})
        if tol == "env":
            monkeypatch.setenv("GFRAME_TOL", "0.9")
            extra = []
        else:
            extra = ["--tol", tol]

        reports = []
        for command in ("classify", "all"):
            assert cli.main([command, str(p)] + extra) in (0, 1)
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(json.loads(out))
        cls = reports[0]["classification"]
        assert cls["is_orthonormal_set"]
        assert not (cls["is_frame"] or cls["is_riesz_basis"] or cls["is_on_basis"])
        assert reports[1]["classification"] == cls
        assert "dual_bounds" not in reports[1]

    @pytest.mark.parametrize("kappa", [1e3, 1e4, 1e5, 9e5])
    def test_ill_conditioned_frame_keeps_its_duals(self, kappa, tmp_path, capsys):
        """A frame with cond(T) up to the frame rule's limit passes `dual`
        and `all`: its canonical and alternate duals reconstruct, the dual
        bounds are reciprocal, and the Gram test tells the two duals apart,
        since the alternate dual's added term is at the canonical dual's
        scale 1/sigma_min."""
        p = tmp_path / "conditioned.frame"
        frame_io.save(p, conditioned_frame(kappa))
        assert cli.main(["dual", str(p)]) == 0
        capsys.readouterr()
        code = cli.main(["all", str(p)])
        passed = {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert passed["dual_pair"] and passed["reciprocal_bounds"]
        assert passed["alternate_dual_reconstruction"]
        assert passed["gram_distinguishes_canonical"]
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["alt-dual", "all"])
    def test_redundant_frame_at_1e_minus_100(self, command, tmp_path, capsys):
        """The duals of a frame at 1e-100 are about 1e100, and the Gram test
        forms T_Th† T_Th from them scaled below 1, so the report passes with
        no overflow."""
        p = tmp_path / "tiny.frame"
        frame_io.save(p, redundant_frame(1e-100))
        assert cli.main([command, str(p)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["alt-dual", "all"])
    @pytest.mark.parametrize("c", [1e6, 1e10, 1e100])
    def test_gram_check_on_large_frames(self, command, c, tmp_path, capsys):
        """On the redundant frame at 1e6, 1e10 and 1e100 the duals are
        small, and the Gram test, compared at the scale ||T_Th||_F^2 with no
        floor at 1, tells the canonical dual from the alternate one.  The
        exit code is not pinned: `differs_from_canonical` still compares
        with an absolute threshold."""
        p = tmp_path / "huge.frame"
        frame_io.save(p, redundant_frame(c))
        assert cli.main([command, str(p)]) in (0, 1)
        passed = {x["name"]: x["pass"] for x in json.loads(capsys.readouterr().out)["checks"]}
        assert passed["gram_distinguishes_canonical"]

    def test_reciprocal_bounds_measure_the_dual(self, mercedes_path, capsys,
                                                monkeypatch):
        """A dual whose matrix is scaled by 1 + 1e-6 but which stores the
        exact dual's factor fails `reciprocal_bounds`: the check reads the
        dual's own singular values, not the factor it caches."""
        inverse_root = frames._times_inverse_root

        def scaled(F, k):
            D = inverse_root(F, k)
            return gf.GFrame(F.hilbert_dim, tuple((1 + 1e-6) * B for B in D.blocks))

        monkeypatch.setattr(frames, "_times_inverse_root", scaled)
        assert cli.main(["dual", mercedes_path]) == 1
        doc = json.loads(capsys.readouterr().out)
        check = {c["name"]: c for c in doc["checks"]}["reciprocal_bounds"]
        assert not check["pass"] and check["measured"] > 1e-6
        # the reported bounds come from the stored factor
        assert doc["dual_bounds"]["lower"] == pytest.approx(1 / doc["bounds"]["upper"])

    def test_all_forms_the_canonical_dual_once(self, mercedes_path, capsys,
                                               monkeypatch):
        formed = count_inverse_roots(monkeypatch)
        assert cli.main(["all", mercedes_path]) == 0
        capsys.readouterr()
        assert formed == [2]

    @pytest.mark.parametrize("command", ["alt-dual", "all"])
    def test_numerical_failure_emits_no_file(self, command, mercedes_path,
                                             tmp_path, capsys, monkeypatch):
        """--emit writes once the suite has reached its report: when the
        alternate dual fails with exit 3, `all` does not leave the canonical
        dual it had already formed on disk."""
        from gframes import duality
        from gframes.errors import NotADual

        def fail(*args, **kwargs):
            raise NotADual("G does not reconstruct against F")

        monkeypatch.setattr(duality, "construct_alternate_dual", fail)
        out = tmp_path / "emitted.frame"
        assert cli.main([command, mercedes_path, "--emit", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "NotADual"
        assert not out.exists()

    def test_unwritable_out_leaves_no_spec(self, mercedes_path, tmp_path, capsys):
        """The report is written beside --out before the --emit spec is
        saved, so an --out that cannot be written leaves no spec behind."""
        spec = tmp_path / "d.frame"
        assert cli.main(["dual", mercedes_path, "--emit", str(spec),
                         "--out", str(tmp_path / "missing" / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "io"
        assert not spec.exists()

    def test_unwritable_emit_leaves_out_unchanged(self, mercedes_path, tmp_path, capsys):
        """A spec that cannot be saved leaves an existing --out byte for byte
        as it was, and no temporary file beside it."""
        reports = tmp_path / "reports"
        reports.mkdir()
        out = reports / "r.json"
        assert cli.main(["all", mercedes_path, "--out", str(out)]) == 0
        before = out.read_bytes()
        assert cli.main(["all", mercedes_path, "--seed", "3", "--out", str(out),
                         "--emit", str(tmp_path / "missing" / "d.frame")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "io"
        assert out.read_bytes() == before
        assert [p.name for p in reports.iterdir()] == ["r.json"]

    def test_out_that_cannot_be_replaced_leaves_no_spec(self, mercedes_path,
                                                         tmp_path, capsys):
        """An --out that is a directory fails only at the last step, after
        the spec is saved: the spec is removed again, no temporary file is
        left, and the error names --out."""
        out = tmp_path / "r.json"
        out.mkdir()
        spec = tmp_path / "d.frame"
        assert cli.main(["dual", mercedes_path, "--emit", str(spec),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert captured.out == "" and err["error"] == "io"
        assert str(out) in err["detail"] and ".tmp" not in err["detail"]
        assert not spec.exists() and list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mercedes.frame", "r.json"]

    # the checks of each subcommand in report order, with the tolerance each
    # reports at the default --tol (1e-10) and at --tol 1e-6: the table's
    # thresholds, --tol for dual_pair and gram_distinguishes_canonical, and
    # max(--tol, TOL_FLOOR) for alternate_dual_reconstruction
    CLASSIFY_CHECKS = [("frame_inequality_sampling", 1e-9, 1e-9)]
    DUAL_CHECKS = [("dual_pair", 1e-10, 1e-6), ("reciprocal_bounds", 1e-8, 1e-8)]
    ALT_DUAL_CHECKS = [("alternate_dual_reconstruction", 1e-9, 1e-6),
                       ("differs_from_canonical", 1e-6, 1e-6),
                       ("canonical_minimality", 1e-10, 1e-10),
                       ("gram_distinguishes_canonical", 1e-10, 1e-6)]
    PERTURB_CHECKS = [("m_opt_dominates_sampling", 1e-8, 1e-8),
                      ("guaranteed_lower_bound", 1e-9, 1e-9)]
    COHERENT_CHECKS = [("quadrature_identity", 1e-10, 1e-10),
                       ("eigen_relation_a", 1e-8, 1e-8),
                       ("eigen_relation_b", 1e-8, 1e-8),
                       ("uncertainty_a", 1e-6, 1e-6),
                       ("uncertainty_b", 1e-6, 1e-6)]

    @pytest.mark.parametrize("tol", [None, "1e-6"])
    @pytest.mark.parametrize("argv, expected", [
        (["classify", "mercedes"], CLASSIFY_CHECKS),
        (["dual", "mercedes"], DUAL_CHECKS),
        (["alt-dual", "mercedes"], ALT_DUAL_CHECKS),
        (["all", "mercedes"], CLASSIFY_CHECKS + DUAL_CHECKS + ALT_DUAL_CHECKS),
        (["all", "gon"], CLASSIFY_CHECKS + DUAL_CHECKS),
        (["all", "conditioned"], CLASSIFY_CHECKS + DUAL_CHECKS + ALT_DUAL_CHECKS),
        (["perturb", "mercedes", "mercedes"], PERTURB_CHECKS),
        (["coherent", "gon", "--check", "identity", "--check", "eigen",
          "--check", "uncertainty"], COHERENT_CHECKS),
    ])
    def test_check_names_and_tolerances(self, argv, expected, tol, mercedes_path,
                                        gon_path, tmp_path, capsys):
        """The decision checks report 0.0 when they pass and 1.0 when they
        fail, and gram_distinguishes_canonical 0.0 either way; every check
        passes, on the cond(T) = 1e5 frame too."""
        conditioned = tmp_path / "conditioned.frame"
        frame_io.save(conditioned, conditioned_frame(1e5))
        paths = {"mercedes": mercedes_path, "gon": gon_path,
                 "conditioned": str(conditioned)}
        extra = ["--tol", tol] if tol else []
        code = cli.main([paths.get(a, a) for a in argv] + extra)
        checks = json.loads(capsys.readouterr().out)["checks"]
        column = 2 if tol else 1
        assert [(c["name"], c["tolerance"]) for c in checks] == [
            (row[0], row[column]) for row in expected]
        assert code == (0 if all(c["pass"] for c in checks) else 1)
        for c in checks:
            if c["name"] in ("dual_pair", "alternate_dual_reconstruction"):
                assert c["measured"] == (0.0 if c["pass"] else 1.0)
            if c["name"] == "gram_distinguishes_canonical":
                assert c["measured"] == 0.0 and c["pass"]

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
