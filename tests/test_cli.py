import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ktops import cli
from ktops.cli import run


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_basis_pretty():
    code, text = capture(["basis", "ko(2)", "--n", "3"])
    assert code == 0
    assert "c_1 = 1/8*w^2 - 1/8" in text


def test_basis_json_exact_rationals():
    code, text = capture(["basis", "k(3)", "--n", "4", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["spectrum"] == "k(3)"
    assert data["basis"][2]["denominator"] == "6"
    assert "." not in text  # never decimals


def test_json_output_is_canonical():
    code, text = capture(["check", "k(3)", "--l", "2", "--format", "json"])
    assert code == 0
    text = text.strip()
    assert json.dumps(json.loads(text), sort_keys=True) == text


def test_gamma_tsv_one_cell_per_row():
    code, text = capture(["gamma", "k(3)", "--n", "2", "--format", "tsv"])
    assert code == 0
    lines = [l for l in text.strip().splitlines() if l]
    # header + 1 + 4 + 9 entries
    assert lines[0].split("\t") == ["n", "i", "j", "value"]
    assert len(lines) == 1 + 1 + 4 + 9


def test_product_matches_gamma_row():
    code, text = capture(["product", "k(3)", "--i", "1", "--j", "1", "--prec", "4", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["coeffs"] == ["0", "1", "1", "0"]


def test_invert_and_reject():
    code, text = capture(["invert", "k(3)", "--coeffs", "1,3", "--prec", "4", "--format", "json"])
    assert code == 0
    out = json.loads(text)
    assert out["invertible"] is True
    code, text = capture(["invert", "k(3)", "--coeffs", "1,-1", "--format", "json"])
    assert code == 1
    out = json.loads(text)
    assert out["invertible"] is False and out["slot"] == 1


def test_check_exit_codes():
    code, _ = capture(["check", "k(3)", "--l", "1", "--sample", "3"])
    assert code == 0
    code, text = capture(["check", "k(3)", "--l", "1", "--sample", "3",
                          "--include-negative-controls"])
    assert code == 1
    assert "control" in text


def test_val2_subcommand():
    code, text = capture(["val2", "--max", "32", "--format", "json"])
    assert code == 0
    assert json.loads(text)["holds"] is True


def test_gamma_transfer_subcommand():
    code, text = capture(["gamma-transfer", "--max", "4", "--format", "json"])
    assert code == 0
    assert json.loads(text)["holds"] is True


def test_unknown_spectrum_is_usage_error():
    code, _ = capture(["basis", "zz(7)", "--n", "2"])
    assert code == 2


def test_bad_q_is_usage_error():
    code, _ = capture(["basis", "k(3)", "--q", "4", "--n", "2"])
    assert code == 2


def test_bad_flags_are_usage_error():
    code, _ = capture(["product", "k(3)", "--i", "3", "--j", "1", "--prec", "2"])
    assert code == 2
    code, _ = capture(["nonsense"])
    assert code == 2


def test_format_env_default(monkeypatch):
    monkeypatch.setenv("KTOPS_FORMAT", "json")
    code, text = capture(["val2", "--max", "8"])
    assert code == 0
    json.loads(text)  # parses as JSON because the env default applied
    monkeypatch.setenv("KTOPS_FORMAT", "bogus")
    code, text = capture(["val2", "--max", "8"])
    assert code == 0  # bad env value falls back to pretty
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_format_env_read_per_call(monkeypatch):
    # the parser is built once per process, but each run reads the
    # environment default anew
    monkeypatch.setenv("KTOPS_FORMAT", "json")
    _, first = capture(["val2", "--max", "4"])
    monkeypatch.setenv("KTOPS_FORMAT", "tsv")
    _, second = capture(["val2", "--max", "4"])
    assert json.loads(first)["holds"] is True
    assert second.splitlines()[0].split("\t") == ["check", "holds", "cells", "mismatches"]
    code, third = capture(["val2", "--max", "4", "--format", "json"])
    assert code == 0 and third == first  # an explicit flag beats the environment


def test_huge_table_prints_in_full():
    # coordinates of c_12 reach 5,015 digits, past Python's default
    # int-to-str limit of 4,300; the output still prints them exactly
    code, text = capture(["basis", "G(7)", "--q", "38", "--n", "12", "--format", "json"])
    assert code == 0
    coords = [v for e in json.loads(text)["basis"] for v in e["coords_of_monomial"]]
    assert max(len(v) for v in coords) > 4300
    # read back with the limit lifted, as run leaves it
    assert all(Fraction(v).denominator % 7 for v in coords)


@pytest.mark.skipif(not cli._INPUT_DIGIT_LIMIT, reason="this Python has no int-to-str limit")
def test_coeffs_parsed_under_digit_limit():
    huge = "1" * 5000
    code, _ = capture(["basis", "k(3)", "--n", "1"])  # lifts the limit for rendering
    assert code == 0 and sys.get_int_max_str_digits() == 0
    code, text = capture(["invert", "k(3)", "--coeffs", f"1,{huge}", "--format", "json"])
    assert code == 2 and text == ""


def test_check_needs_a_positive_sample(capsys):
    for sample in ("0", "-2"):
        code, text = capture(["check", "k(3)", "--l", "1", "--sample", sample])
        assert code == 2 and text == ""
        assert "sample size must be a positive integer" in capsys.readouterr().err


def test_product_names_a_negative_index(capsys):
    for i, j in (("-1", "0"), ("0", "-2")):
        code, text = capture(["product", "k(3)", "--i", i, "--j", j, "--prec", "3"])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "is negative" in err and "below the precision" not in err


def test_closed_pipe_exits_quietly():
    # about 156 kB of tsv, more than the pipe and the stdout buffer hold,
    # so the process is still writing when the reader closes after a line
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ktops.cli", "gamma", "k(3)", "--n", "24", "--format", "tsv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site .pth files from preloading modules, so what is listed
    # is what importing the CLI itself costs every fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = ("import ktops.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
