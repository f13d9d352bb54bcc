import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cloneregion import __version__, algebra, cli, decompose, oracle, regions
from cloneregion.cli import SCHEMA_VERSION, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIrreps:
    def test_n3_d2(self, capsys):
        code, out, _ = run(capsys, "irreps", "--n", "3", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA_VERSION == "1.0.0"
        assert doc["config"]["n"] == 3 and doc["config"]["d"] == 2
        [block] = doc["blocks"]
        assert block["alpha"] == [1]
        assert sorted(block["eigenvalues"]) == pytest.approx([1.0, 3.0])

    def test_round_trip_idempotent(self, capsys):
        _, out, _ = run(capsys, "irreps", "--n", "4", "--d", "3")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "irreps", "--n", "4", "--d", "2")
        _, b, _ = run(capsys, "irreps", "--n", "4", "--d", "2")
        assert a == b

    def test_config_records_only_used_flags(self, capsys):
        _, out, _ = run(capsys, "irreps", "--n", "3", "--d", "2")
        doc = json.loads(out)
        assert set(doc["config"]) == {"command", "n", "d"}
        assert set(doc["versions"]) == {"cloneregion", "numpy", "scipy"}

    @pytest.mark.parametrize("argv", [
        ("irreps", "--format", "csv"),
        ("irreps", "--samples", "7"),
        ("symmetric", "--seed", "1"),
        ("region", "--n-point-convention", "zero"),
        ("irreps", "--tol", "1e-6"),
        ("region", "--tol", "1e-6"),
        ("hull", "--tol", "1e-6"),
        ("hull", "--samples", "64"),
        ("check", "--tol", "1e-6"),
        ("symmetric", "--tol", "1e-6"),
    ])
    def test_unused_flags_rejected(self, capsys, argv):
        assert main(list(argv)) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestRegion:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "region", "--n", "3", "--d", "2", "--samples", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["n_point"] == [0, 0]
        [block] = doc["blocks"]
        assert all(len(p) == 2 for p in block["points"])

    def test_csv_parses_as_floats(self, capsys):
        code, out, _ = run(
            capsys, "region", "--n", "3", "--d", "2", "--samples", "8",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["source", "a_1", "a_2", "F_12", "F_13"]
        for row in rows[1:]:
            for cell in row[1:]:
                if cell:
                    float(cell)  # plain decimal text, no wrapper reprs
        assert rows[-1][0] == "N"


class TestHull:
    def test_facets_and_vertices(self, capsys):
        code, out, _ = run(capsys, "hull", "--n", "3", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        hull = doc["hull"]
        assert hull["volume"] > 0
        assert 0 <= hull["gap"] <= 1e-7
        for facet in hull["facets"]:
            n2 = sum(x * x for x in facet["normal"])
            assert n2 == pytest.approx(1.0, abs=1e-12)
            assert facet["offset"] - 1e-12 <= facet["support"] <= facet["offset"] + hull["gap"]

    def test_too_many_clones(self, capsys):
        code, _, err = run(capsys, "hull", "--n", "5", "--d", "2")
        assert code == 2
        assert "clones" in err

    def test_clone_count_refused_before_any_block(self, capsys, monkeypatch):
        # at (14, 2) the blocks took 1.5 s to build before the refusal
        def refuse(*args, **kwargs):
            raise AssertionError("decompose ran before the refusal")

        monkeypatch.setattr(cli, "decompose", refuse)
        code, out, err = run(capsys, "hull", "--n", "14", "--d", "2")
        assert code == 2 and out == ""
        assert err == "error: hulls only for 2 or 3 clones (got 13); use support/membership\n"


class TestCheck:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
    def test_passes(self, capsys, n, d):
        code, out, _ = run(capsys, "check", "--n", str(n), "--d", str(d))
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert all(ln.startswith("[PASS]") for ln in lines)
        assert "max gap" in out

    def test_close_block_eigenvalues(self, capsys):
        # seed 5025 draws a direction with two block eigenvalues 3e-8 apart
        code, out, _ = run(capsys, "check", "--n", "5", "--d", "4", "--seed", "5025")
        assert code == 0
        assert "FAIL" not in out
        assert "18/18 checks passed" in out and "1->2" not in out  # the 1->2 row is n = 3 only

    @pytest.mark.parametrize("d", [2, 50])
    def test_one_to_two_closed_form_row(self, capsys, d):
        code, out, _ = run(capsys, "check", "--n", "3", "--d", str(d))
        assert code == 0
        [row] = [ln for ln in out.splitlines() if "1->2 extreme points" in ln]
        assert row.startswith("[PASS]")
        assert "9/9 checks passed" in out

    def test_past_dense_memory(self, capsys):
        # d^n = 46656: a dense operator would need 16 GiB
        code, out, _ = run(capsys, "check", "--n", "6", "--d", "6")
        assert code == 0
        assert "28/28 checks passed" in out
        assert "FAIL" not in out

    def test_one_sector_per_colour_orbit(self, capsys):
        # the 330 kept sectors of (C^8)^6 fall into the 5 types of partitions of 4
        code, out, _ = run(capsys, "check", "--n", "6", "--d", "8")
        assert code == 0
        [row] = [ln for ln in out.splitlines() if "full vs block spectra" in ln]
        assert row.startswith("[PASS]") and "; 5 sectors for 330)" in row
        assert "28/28 checks passed" in out

    @pytest.mark.parametrize("n,d", [(5, 4), (6, 3)])
    def test_generator_rows_do_not_depend_on_the_chunk_size(self, monkeypatch, n, d):
        def generator_rows():
            return [row for row in cli.run_checks(n, d) if row[0].endswith(
                (": B^2 = d B", ": B symmetric", ": tr B = d dim_phi"))]

        rows = generator_rows()
        assert len(rows) == 3 * len(decompose(n, d).blocks)
        monkeypatch.setattr(regions, "_BATCH", 1)  # one generator a chunk
        assert generator_rows() == rows

    @pytest.mark.parametrize("n,d", [(3, 600), (4, 120)])
    def test_passes_where_product_vectors_were_refused(self, capsys, n, d):
        # the classical-clone row reads a charge sector, not the d^n entries of |i..i>
        code, out, _ = run(capsys, "check", "--n", str(n), "--d", str(d))
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert lines and all(ln.startswith("[PASS]") for ln in lines)
        assert f"{len(lines)}/{len(lines)} checks passed" in out

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 4)])
    def test_classical_clone_row_reads_the_sector(self, capsys, monkeypatch, n, d):
        # drop the entries of X_2 in column |0..0> of the sector of type (n - 2)
        enumerate_sector = oracle._sector

        def dropping(parts, n, d):
            sector = enumerate_sector(parts, n, d)
            if parts != (n - 2,):
                return sector
            (row, col), *rest = sector.entries
            assert col[0, 0] == 0 and row[0, 0] == 0  # <0..0| X_2 |0..0> = 1
            return oracle.Sector(sector.states, ((row[1:], col[1:]), *rest), d)

        # check reads the sector through its own import of _sector, the spectrum through oracle's
        monkeypatch.setattr(oracle, "_sector", dropping)
        monkeypatch.setattr(cli, "_sector", dropping)
        code, out, _ = run(capsys, "check", "--n", str(n), "--d", str(d))
        assert code == 1
        [row] = [ln for ln in out.splitlines() if "classical-clone point" in ln]
        assert row.startswith("[FAIL]") and f"max dev {1 / d:.2e}" in row

    def test_past_the_old_cap(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "8", "--d", "3")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert lines and all(ln.startswith("[PASS]") for ln in lines)
        assert f"{len(lines)}/{len(lines)} checks passed" in out


class TestChannels:
    def test_csv_and_determinism(self, capsys):
        args = ("channels", "--n", "3", "--d", "2", "--samples", "5", "--seed", "3")
        code, a, _ = run(capsys, *args)
        assert code == 0
        _, b, _ = run(capsys, *args)
        assert a == b
        rows = list(csv.reader(io.StringIO(a)))
        assert rows[0] == ["seed", "F_12", "F_13", "verdict"]
        assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6", "7"]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0
            assert row[3] in ("inside", "boundary", "outside")

    def test_past_dense_memory(self, capsys):
        # d^n = 46656: a dense Choi state would need 32 GiB
        code, out, _ = run(capsys, "channels", "--n", "6", "--d", "6", "--samples", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert all(0.0 <= float(x) <= 1.0 for x in row[1:-1])


class TestSymmetric:
    def test_n4_d2(self, capsys):
        code, out, _ = run(capsys, "symmetric", "--n", "4", "--d", "2")
        assert code == 0
        assert "F = 0.666667, f = 0.777778" in out


class TestConvert:
    def test_both_directions(self, capsys):
        code, out, _ = run(capsys, "convert", "--d", "2", "--singlet", "0.75")
        assert code == 0 and "f = 0.833333333" in out
        code, out, _ = run(capsys, "convert", "--d", "2", "--clone-fidelity", "0.8333333333333334")
        assert code == 0 and "F = 0.75" in out

    @pytest.mark.parametrize("f", ["5", "0.1"])
    def test_impossible_clone_fidelity(self, capsys, f):
        # f = (F d + 1)/(d + 1) lies in [1/(d+1), 1] for F in [0, 1]
        code, out, err = run(capsys, "convert", "--d", "2", "--clone-fidelity", f)
        assert code == 2 and "clone fidelity" in err
        assert out == ""

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "convert", "--d", "2")
        assert code == 2
        assert "singlet" in err

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_small_d_names_the_flag(self, capsys, d):
        # convert takes no --n, so the refusal names --d alone
        code, out, err = run(capsys, "convert", "--d", d, "--singlet", "0.75")
        assert code == 2 and out == ""
        assert err == f"error: need --d >= 2, got {d}\n"

    def test_both_arguments(self, capsys):
        code, out, err = run(capsys, "convert", "--singlet", "0.75", "--clone-fidelity", "0.9")
        assert code == 2
        assert "not allowed with" in err
        assert out == ""


class TestArgumentValidation:
    def test_n_too_small(self, capsys):
        code, _, err = run(capsys, "irreps", "--n", "2", "--d", "2")
        assert code == 2 and "n >= 3" in err

    def test_bad_tol(self, capsys):
        code, _, _ = run(capsys, "channels", "--n", "3", "--d", "2", "--tol", "0")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "1", "1.5"])
    def test_tol_must_lie_between_0_and_1(self, capsys, tol):
        # the gauge is >= 0, so at tol >= 1 no channel could read inside
        code, out, err = run(capsys, "channels", "--n", "3", "--d", "2", "--samples", "2",
                             "--tol", tol)
        assert code == 2 and out == ""
        assert err == "error: need samples >= 1 and 0 < tol < 1\n"

    @pytest.mark.parametrize("argv", [("check",), ("channels", "--samples", "1")])
    def test_negative_seed_names_the_flag(self, capsys, argv):
        # PCG64's own refusal, "expected non-negative integer", names no flag
        code, out, err = run(capsys, *argv, "--n", "3", "--d", "2", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: need --seed >= 0, got -1\n"

    @pytest.fixture
    def no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolve ran before the memory budget refusal")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)

    def test_irreps_cap(self, capsys, no_eigensolve):
        # the first block alone, (998) at n = 1000, needs 8 GB of generators
        start = time.perf_counter()
        code, out, err = run(capsys, "irreps", "--n", "1000", "--d", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "memory budget of 2048 MiB" in err
        assert out == ""

    @pytest.mark.parametrize("command,n,d", [("irreps", 10**6, 3), ("symmetric", 10**6, 2)])
    def test_refused_at_a_million_within_a_second(self, capsys, no_eigensolve, command, n, d):
        # refused at the first block, whose dimensions must not cost n!: with the hook rule
        # symmetric --n 300000 --d 2 took 101 s
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--n", str(n), "--d", str(d))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "memory budget of 2048 MiB" in err
        assert out == ""

    def test_oracle_cap(self, capsys, no_eigensolve):
        # a Haar isometry C^100 -> (C^100)^{x 5} holds 10^12 complex entries
        code, out, err = run(capsys, "channels", "--n", "6", "--d", "100", "--samples", "1")
        assert code == 2 and "Haar isometry" in err and "memory budget" in err
        assert out == ""

    def test_check_oracle_cap(self, capsys, monkeypatch, no_eigensolve):
        # check refuses a size before it builds any block
        def refuse(*args, **kwargs):
            raise AssertionError("decompose ran before the refusal")

        monkeypatch.setattr(cli, "decompose", refuse)
        # past the budget the oracle rows cannot run, so check refuses the size
        for n in (10, 11):
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--n", str(n), "--d", "4")
            assert time.perf_counter() - start < 1.0
            assert code == 2 and "charge sectors" in err and "memory budget" in err
            assert out == ""

    @pytest.mark.parametrize("n,d", [(70, 2), (100, 2), (60, 60), (100, 100), (10**6, 2)])
    def test_check_refuses_large_n_at_its_first_oversized_sector(self, n, d):
        # a CLI child with decompose patched to raise: the refusal builds no block and
        # enumerates the sectors up to the first one past the budget, not every type
        child = ("import sys\nfrom cloneregion import cli\n"
                 "def refuse(*args, **kwargs):\n    raise AssertionError('decompose ran')\n"
                 "cli.decompose = refuse\nsys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child, "check", "--n", str(n), "--d", str(d)],
                              capture_output=True, text=True, env=env, timeout=5)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr[-2000:]
        assert "charge sectors" in proc.stderr and "at the sector of type" in proc.stderr
        assert "larger ones may follow" in proc.stderr and "memory budget" in proc.stderr

    def test_irreps_prices_its_json_before_building(self, capsys, monkeypatch):
        # the JSON price reads the block labels, so (15, 2), whose blocks decompose
        # admits, is refused before any is built
        def refuse(*args, **kwargs):
            raise AssertionError("a block was built before the refusal")

        monkeypatch.setattr(algebra, "build_block", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "irreps", "--n", "15", "--d", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "the JSON text of decompose(15, 2)" in err and "memory budget" in err

    def test_check_charges_the_generator_store_beside_each_sector(self, capsys, monkeypatch):
        # at (5,4) the largest sector is priced at 26,237,408 B and the generators
        # hold 3072 B: a budget between the price and the sum admits the first
        # prediction, before decompose, and refuses at the oracle's, which holds both
        price, store = 26_237_408, 3072
        monkeypatch.setattr(algebra, "MEMORY_BUDGET", price - 1)
        with pytest.raises(ValueError, match="charge sectors"):
            oracle.charge_orbits(5, 4)
        monkeypatch.setattr(algebra, "MEMORY_BUDGET", price + store // 2)
        oracle.charge_orbits(5, 4)
        code, out, err = run(capsys, "check", "--n", "5", "--d", "4")
        assert code == 2 and out == ""
        assert "charge sectors" in err and "memory budget" in err
        assert decompose(5, 4).generator_bytes == store

    def test_irreps_past_the_old_cap(self, capsys):
        code, out, _ = run(capsys, "irreps", "--n", "9", "--d", "2")
        assert code == 0
        assert json.loads(out)["n"] == 9


class TestOutputFiles:
    def test_out_flag_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "dec.json"
        code, out, _ = run(capsys, "irreps", "--n", "3", "--d", "2")
        code2 = main(["irreps", "--n", "3", "--d", "2", "--out", str(path)])
        capsys.readouterr()
        assert code == code2 == 0
        written = path.read_text()
        # config records the output path; strip it before comparing
        doc_a, doc_b = json.loads(out), json.loads(written)
        assert doc_a == doc_b

    def test_no_stray_temp_files(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        main(["region", "--n", "3", "--d", "2", "--samples", "4",
              "--format", "csv", "--out", str(path)])
        capsys.readouterr()
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    @pytest.mark.parametrize("target", ["missing/dec.json", "existing"],
                             ids=["missing-directory", "names-a-directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        (tmp_path / "existing").mkdir()
        code, out, err = run(capsys, "irreps", "--n", "3", "--d", "2",
                             "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert repr(str(tmp_path / target)) in err and ".cloneregion-" not in err
        assert not list(tmp_path.rglob(".cloneregion-*"))
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]
        assert not list((tmp_path / "existing").iterdir())


class TestEveryFlagIsUsed:
    """Each flag a command accepts is read by that command."""

    @pytest.mark.parametrize("runs", [
        [("irreps",)],
        [("region", "--samples", "8")],
        [("hull",)],
        [("check",)],
        [("channels", "--samples", "2")],
        [("symmetric",)],
        [("convert", "--singlet", "0.75"), ("convert", "--clone-fidelity", "0.8")],
    ])
    def test_accepted_flags_are_read(self, capsys, runs):
        reads, used, accepted = set(), set(), set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    reads.add(name)
                return super().__getattribute__(name)

        for argv in runs:
            size = () if argv[0] == "convert" else ("--n", "3")
            args = build_parser().parse_args([*argv, *size, "--d", "2"], namespace=Recording())
            func = args.func
            reads.clear()  # argparse itself probes the namespace while parsing
            assert func(args) == 0
            used |= reads
            accepted |= set(vars(args)) - {"command", "func"}
        capsys.readouterr()
        assert accepted - used == set()
