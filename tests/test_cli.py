import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sixvertex import bethe, config, dwbc, verify
from sixvertex.cli import main
from sixvertex.config import RunConfig, load_config, parse_config_text
from sixvertex.errors import ConfigError
from sixvertex.verify import run_verify, run_wavefunction, write_report
from sixvertex.vertex_model import Regime

SMALL_CONFIG = """\
# compact run for fast tests
regime: rational
eta: 1
L: 4
M: 1
xi: random
xi_spread: 0.3
seed: 11
"""


def strip_times(json_text):
    doc = json.loads(json_text)
    for check in doc["checks"]:
        check["wall_time_s"] = None
    return json.dumps(doc, indent=2)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_parse_defaults():
    cfg = parse_config_text("")
    assert cfg.family == "rational" and cfg.length == 6 and cfg.magnons == 2


def test_parse_explicit_xi():
    cfg = parse_config_text("L: 2\nM: 1\nxi: (0.1+0.2j), -0.3\n")
    assert cfg.xi == (0.1 + 0.2j, -0.3 + 0j)


def test_parse_rejects_m_above_l():
    with pytest.raises(ConfigError):
        parse_config_text("L: 2\nM: 3\n")


def test_parse_rejects_m_equal_to_l():
    # the solver has no starting branch set for M = L (combinations of 1 .. L-1)
    with pytest.raises(ConfigError, match="0 <= M < L=2"):
        parse_config_text("L: 2\nM: 2\n")


def test_cli_verify_rejects_m_equal_to_l(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("L: 3\nM: 3\n")
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert "M=3 must satisfy 0 <= M < L=3" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["L: 3\nM: 2\n", "L: 5\nM: 3\n", "L: 8\nM: 5\n"])
def test_parse_rejects_rational_m_above_half_l(text):
    # a rational sector M holds C(L, M) - C(L, M-1) <= 0 regular root sets
    with pytest.raises(ConfigError, match=r"rational M=\d must satisfy 2M <= L="):
        parse_config_text(text)


def test_parse_accepts_m_at_half_l_and_trigonometric_m_above_it():
    assert parse_config_text("L: 4\nM: 2\n").magnons == 2
    assert parse_config_text("L: 3\nM: 1\n").magnons == 1
    trig = parse_config_text("regime: trigonometric\neta: 0.7\nL: 3\nM: 2\n")
    assert (trig.length, trig.magnons) == (3, 2)
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert load_config(configs / "closed_case.cfg").magnons == 1


def test_cli_verify_rejects_rational_m_above_half_l(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("L: 3\nM: 2\n")
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert "rational M=2 must satisfy 2M <= L=3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_parse_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -3"):
        parse_config_text("seed: -3\n")
    assert parse_config_text("seed: 0\n").seed == 0


@pytest.mark.parametrize("source", ["file", "override"])
def test_cli_verify_rejects_negative_seed(tmp_path, capsys, small_config, source):
    out_dir = tmp_path / "out"
    if source == "file":
        path = tmp_path / "run.cfg"
        path.write_text("seed: -3\n")
        argv = ["verify", "--config", str(path)]
    else:
        argv = ["verify", "--config", str(small_config), "--seed", "-1"]
    assert main(argv + ["--output-dir", str(out_dir)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out_dir.exists()


def test_parse_rejects_xi_length_mismatch():
    with pytest.raises(ConfigError):
        parse_config_text("L: 3\nM: 1\nxi: 0.1, 0.2\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("frobnicate: 3\n")


# Config lines the key: value parser rejects, and the message naming the
# line; two seed lines used to keep the last one silently.
MALFORMED_CONFIGS = [
    ("L: 4\ngarbage line\n", "line 2: expected 'key: value', got 'garbage line'"),
    ("# header\nfrobnicate: 3\n", "line 2: unknown key 'frobnicate'"),
    ("seed: 3\nL: 4\nseed: 5  # again\n", "line 3: repeated key 'seed'"),
    # every check's tolerance is its row in verify.CHECKS; no key replaces them
    ("tolerance: 1e-9\n", "line 1: unknown key 'tolerance'"),
]


@pytest.mark.parametrize("text, message", MALFORMED_CONFIGS)
def test_parse_rejects_malformed_lines(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


@pytest.mark.parametrize("text, message", MALFORMED_CONFIGS)
def test_cli_verify_rejects_malformed_config(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    argv = ["verify", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# One line per known key, with the RunConfig field and value it must set.
KEY_CASES = [
    ("regime: trigonometric", "family", "trigonometric"),
    ("eta: 0.7-0.1j", "eta", 0.7 - 0.1j),
    ("L: 4", "length", 4),
    ("M: 1", "magnons", 1),
    ("xi: random", "xi", None),
    ("xi: 0.5, (0.1-0.2j), -1, 2, 0j, 3", "xi", (0.5, 0.1 - 0.2j, -1, 2, 0, 3)),
    ("xi_spread: 0.25", "xi_spread", 0.25),
    ("seed: 11", "seed", 11),
    ("M: 0", "magnons", 0),
    ("output_dir: runs/a", "output_dir", Path("runs/a")),
]


@pytest.mark.parametrize("line, field, value", KEY_CASES)
def test_parse_sets_each_key(line, field, value):
    cfg = parse_config_text(line + "  # trailing comment\n")
    assert cfg == RunConfig(**{field: value})
    assert type(getattr(cfg, field)) is type(value)


def test_parse_key_cases_cover_every_key():
    assert {line.split(":")[0] for line, _, _ in KEY_CASES} == set(config._KEYS)


@pytest.mark.parametrize(
    "line",
    [
        "regime: cubic",
        "eta: one",
        "eta: 0",
        "L: 3.5",
        "M: two",
        "xi: 0.1, zz, 0, 0, 0, 0",
        "xi_spread: wide",
        "seed: 7.5",
        "L: 20\nM: 10",
        "regime: trigonometric\nL: 11\nM: 10",
    ],
)
def test_parse_rejects_bad_value(line):
    with pytest.raises(ConfigError):
        parse_config_text(line + "\n")


# phi(eta) = 0 is refused when the config is read, not when a subcommand
# first asks for the regime.
VANISHING_PHI_ETA = [
    "eta: 0\n",
    f"regime: trigonometric\neta: {math.pi!r}\n",
]


@pytest.mark.parametrize("text", VANISHING_PHI_ETA)
def test_parse_rejects_vanishing_phi_eta(text):
    with pytest.raises(ConfigError, match=r"phi\(eta\) vanishes"):
        parse_config_text(text)


@pytest.mark.parametrize("command", ["verify", "solve", "dwbc"])
def test_cli_rejects_vanishing_phi_eta(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    path.write_text(f"eta: 0\noutput_dir: {out_dir}\n")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: phi(eta) vanishes for eta=0j\n"
    assert not out_dir.exists()


def test_parse_rejects_unknown_family_naming_the_key():
    message = "regime must be one of ('rational', 'trigonometric'), got 'cubic'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text("regime: cubic\n")


def test_config_builds_its_regime_and_explicit_lattice_once():
    cfg = parse_config_text("regime: trigonometric\neta: 0.7\nL: 3\nM: 1\nxi: 0.1, -0.2, 0.3j\n")
    assert cfg.regime() is cfg.regime()
    assert cfg.regime() == Regime("trigonometric", 0.7)
    lattice = cfg.resolve_lattice(np.random.default_rng(0))
    assert lattice is cfg.resolve_lattice(np.random.default_rng(1))
    assert lattice.xi == cfg.xi == (0.1, -0.2, 0.3j)
    # the built objects take no part in ==, hash or repr
    again = parse_config_text("regime: trigonometric\neta: 0.7\nL: 3\nM: 1\nxi: 0.1, -0.2, 0.3j\n")
    assert cfg == again and hash(cfg) == hash(again)
    assert "_regime" not in repr(cfg) and "_lattice" not in repr(cfg)


def test_replace_rebuilds_and_rechecks():
    cfg = RunConfig(seed=3)
    assert replace(cfg, seed=4).regime() == cfg.regime()
    with pytest.raises(ConfigError, match=r"phi\(eta\) vanishes"):
        replace(cfg, eta=0)


def test_run_verify_builds_no_regime(monkeypatch, small_config):
    # The regime is built with the config; the parent built two per run.
    cfg = load_config(small_config)
    built = []
    post_init = Regime.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Regime, "__post_init__", counting)
    assert run_verify(cfg).passed
    assert built == []


# Non-finite values the parser reads as numbers: eta nan spent every lattice
# draw and a nan site passed two checks with residual 0.
NON_FINITE_CONFIGS = [
    ("eta: nan\n", "eta must be finite"),
    ("eta: inf\n", "eta must be finite"),
    ("eta: 1+nanj\n", "eta must be finite"),
    ("L: 4\nM: 1\nxi: nan, 0.1, 0.5, 0.9\n", "explicit xi list must be finite"),
    ("L: 4\nM: 1\nxi: 0.1, inf, 0.5, 0.9\n", "explicit xi list must be finite"),
]


@pytest.mark.parametrize("text, message", NON_FINITE_CONFIGS)
def test_parse_rejects_non_finite_values(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


@pytest.mark.parametrize("text, message", NON_FINITE_CONFIGS)
def test_cli_verify_rejects_non_finite_values(tmp_path, capsys, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


# Options a subcommand does not read end in argparse's exit 2: no flag
# replaces the per-check tolerances of verify.CHECKS, and dwbc writes no file.
UNREAD_OPTIONS = [
    ("verify", "--tolerance", "1e-9"),
    ("solve", "--tolerance", "1e-9"),
    ("wavefunction", "--tolerance", "1e-9"),
    ("dwbc", "--tolerance", "1e-9"),
    ("dwbc", "--output-dir", "x"),
]


@pytest.mark.parametrize("command, option, value", UNREAD_OPTIONS)
def test_cli_rejects_options_a_subcommand_does_not_read(
    tmp_path, capsys, small_config, command, option, value
):
    argv = [command, "--config", str(small_config), option, value]
    if command == "wavefunction":
        argv += ["--roots", str(tmp_path / "roots.txt")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


# Typed failures of a run: the sampler finds no generic lattice (README: no
# L = 12 draw at seeds 0-9), or every homotopy stalls (lattice seed 51).
TYPED_FAILURES = [
    ("verify", "L: 12\nM: 3\n", "could not sample a generic lattice after 2000 tries"),
    ("solve", "L: 6\nM: 3\nseed: 51\n", "homotopy stalled from all 7 starts for M=3, L=6"),
    (
        "solve",
        "regime: trigonometric\neta: 0.7\nL: 9\nM: 3\nseed: 10\n",
        "could not sample a generic lattice after 2000 tries",
    ),
]


@pytest.mark.parametrize("command, text, message", TYPED_FAILURES)
def test_cli_typed_run_failure_exits_2_and_writes_nothing(tmp_path, capsys, command, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_report_config_echoes_every_key_but_output_dir(small_config):
    report = run_verify(load_config(small_config))
    # the config keys but output_dir, which the report never echoed
    assert set(report.config) == {"regime", "eta", "L", "M", "xi", "xi_spread", "seed"}


def test_load_missing_config():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_verify_small_config_passes_and_is_deterministic(tmp_path, small_config):
    cfg = load_config(small_config)
    report_a = run_verify(cfg)
    report_b = run_verify(cfg)
    assert report_a.passed and report_b.passed
    assert len(report_a.results) == 14
    assert strip_times(report_a.to_json()) == strip_times(report_b.to_json())
    # wall times aside, the raw bytes agree line for line
    pattern = re.compile(r'"wall_time_s": [0-9eE.+-]+,')
    raw_a = pattern.sub("", report_a.to_json())
    raw_b = pattern.sub("", report_b.to_json())
    assert raw_a == raw_b


@pytest.mark.slow
def test_rational_l11_seed1_fails_creation_commutation():
    # Known failure (ROADMAP item 26): the flip-weight commutation residual
    # is 1.049e-10 against 1e-10 here, and every other check passes.  A
    # change to the residual contract updates this test in the open.
    report = run_verify(RunConfig(family="rational", eta=1.0, length=11, magnons=3, seed=1))
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["creation_commutation"]
    assert all(r.residual >= r.tolerance for r in failed)


def test_verify_unreachable_tolerance_fails(small_config, monkeypatch):
    unreachable = tuple((name, runner, 1e-30) for name, runner, _ in verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", unreachable)
    report = run_verify(load_config(small_config))
    assert not report.passed
    # every check whose residual is not an exact float zero must fail
    assert all(r.passed == (r.residual == 0.0) for r in report.results)
    assert sum(not r.passed for r in report.results) >= 10


def test_cli_verify_exit_codes(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["verify", "--config", str(small_config), "--output-dir", str(out)]) == 0
    assert (out / "report.json").exists() and (out / "report.txt").exists()
    assert not (out / "report.json.tmp").exists()
    # coincident inhomogeneities fail f_closed_forms, creation_commutation and
    # creation_exchange by design (configs/closed_case.cfg)
    coincident = tmp_path / "coincident.cfg"
    coincident.write_text("L: 3\nM: 1\nxi: 0, 0, 0\n")
    fail_out = tmp_path / "fail"
    assert main(["verify", "--config", str(coincident), "--output-dir", str(fail_out)]) == 1
    doc = json.loads((fail_out / "report.json").read_text())
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["f_closed_forms", "creation_commutation", "creation_exchange"]


def test_cli_reports_byte_identical_across_runs(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(small_config), "--output-dir", str(out_a)])
    main(["verify", "--config", str(small_config), "--output-dir", str(out_b)])
    json_a = (out_a / "report.json").read_text()
    json_b = (out_b / "report.json").read_text()
    assert strip_times(json_a) == strip_times(json_b)


def test_cli_seed_override_changes_report(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(small_config), "--output-dir", str(out_a)])
    main(
        [
            "verify",
            "--config",
            str(small_config),
            "--output-dir",
            str(out_b),
            "--seed",
            "12",
        ]
    )
    assert strip_times((out_a / "report.json").read_text()) != strip_times(
        (out_b / "report.json").read_text()
    )


def test_cli_solve_then_wavefunction(tmp_path):
    cfg_path = tmp_path / "closed.cfg"
    cfg_path.write_text("regime: rational\neta: 1\nL: 2\nM: 1\nxi: 0, 0\nseed: 3\n")
    roots_path = tmp_path / "roots.txt"
    assert main(["solve", "--config", str(cfg_path), "--out", str(roots_path)]) == 0
    roots = bethe.read_roots(roots_path)
    assert abs(roots.q[0] - 0.5) < 1e-12

    wave_path = tmp_path / "wave.txt"
    code = main(
        [
            "wavefunction",
            "--config",
            str(cfg_path),
            "--roots",
            str(roots_path),
            "--out",
            str(wave_path),
        ]
    )
    assert code == 0
    lines = wave_path.read_text().splitlines()
    rows = [l.split() for l in lines if not l.startswith("#")]
    assert rows[0] == ["x_1", "re_psi", "im_psi", "provenance"]
    by_source = {(r[3], r[0]): float(r[1]) for r in rows[1:]}
    assert abs(by_source[("formula", "1")] - (-2.0)) < 1e-12
    assert abs(by_source[("formula", "2")] - 2.0) < 1e-12
    assert abs(by_source[("oracle", "1")] - (-2.0)) < 1e-12


def test_cli_wavefunction_missing_roots(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("L: 2\nM: 1\nxi: 0, 0\n")
    wave_path = tmp_path / "wave.txt"
    code = main(
        [
            "wavefunction",
            "--config",
            str(cfg_path),
            "--roots",
            str(tmp_path / "missing.txt"),
            "--out",
            str(wave_path),
        ]
    )
    assert code == 2
    assert not wave_path.exists()


def test_cli_wavefunction_provenance_mismatch(tmp_path, capsys):
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text("regime: rational\neta: 1\nL: 2\nM: 1\nxi: 0, 0\nseed: 3\n")
    roots_path = tmp_path / "roots.txt"
    main(["solve", "--config", str(cfg_a), "--out", str(roots_path)])
    solved = roots_path.read_text()

    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text("regime: rational\neta: 1\nL: 2\nM: 1\nxi: 0.4, -0.1\nseed: 3\n")
    # A different lattice, then documents with a malformed integer or complex field.
    cases = [
        (cfg_b, solved, "different lattice"),
        (cfg_a, solved.replace("L: 2", "L: two"), "'L'"),
        (cfg_a, re.sub(r"^q: .*$", "q: 0.5+zz", solved, flags=re.M), "'q'"),
    ]
    wave_path = tmp_path / "wave.txt"
    for cfg, roots_text, named in cases:
        roots_path.write_text(roots_text)
        code = main(
            [
                "wavefunction",
                "--config",
                str(cfg),
                "--roots",
                str(roots_path),
                "--out",
                str(wave_path),
            ]
        )
        assert code == 2
        assert not wave_path.exists()
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "pattern, line, field",
    [
        (r"^q: .*$", "q: nan", "'q' must be finite"),
        (r"^q: .*$", "q: inf", "'q' must be finite"),
        (r"^residual: .*$", "residual: nan", "'residual' must be finite"),
        (r"^eta: .*$", "eta: nan", "'eta' must be finite"),
        (r"^xi: .*$", "xi: (0j), (nan+0j)", "'xi' must be finite"),
    ],
)
def test_cli_wavefunction_rejects_non_finite_roots(tmp_path, capsys, pattern, line, field):
    # a nan or inf root exited 1 with a traceback from the oracle table, a
    # nan residual was accepted and a nan eta read as a lattice mismatch
    cfg_path = tmp_path / "closed.cfg"
    cfg_path.write_text("regime: rational\neta: 1\nL: 2\nM: 1\nxi: 0, 0\nseed: 3\n")
    roots_path = tmp_path / "roots.txt"
    assert main(["solve", "--config", str(cfg_path), "--out", str(roots_path)]) == 0
    roots_path.write_text(re.sub(pattern, line, roots_path.read_text(), flags=re.M))
    wave_path = tmp_path / "wave.txt"
    argv = ["wavefunction", "--config", str(cfg_path), "--roots", str(roots_path)]
    assert main(argv + ["--out", str(wave_path)]) == 2
    assert field in capsys.readouterr().err
    assert not wave_path.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("garbage line", "roots document line 9: expected 'key: value'"),
        ("frobnicate: 3", "roots document line 9: unknown key 'frobnicate'"),
        ("q: 0.7", "roots document line 9: repeated key 'q'"),
    ],
)
def test_cli_wavefunction_rejects_malformed_roots(tmp_path, capsys, extra, message):
    # A second q line used to replace the solved roots while the stored
    # residual still described the first set.
    cfg_path = tmp_path / "closed.cfg"
    cfg_path.write_text("regime: rational\neta: 1\nL: 2\nM: 1\nxi: 0, 0\nseed: 3\n")
    roots_path = tmp_path / "roots.txt"
    assert main(["solve", "--config", str(cfg_path), "--out", str(roots_path)]) == 0
    roots_path.write_text(roots_path.read_text() + extra + "\n")
    wave_path = tmp_path / "wave.txt"
    argv = ["wavefunction", "--config", str(cfg_path), "--roots", str(roots_path)]
    assert main(argv + ["--out", str(wave_path)]) == 2
    assert message in capsys.readouterr().err
    assert not wave_path.exists()


# Both sums that the verify and wavefunction commands make run over M!
# permutations, so a config past the one cap is bad input.
ABOVE_CAP = [
    pytest.param("L: 20\nM: 10\n", "M=10 exceeds the permutation-sum cap 9", id="rational"),
    pytest.param(
        "regime: trigonometric\nL: 11\nM: 10\n",
        "M=10 exceeds the permutation-sum cap 9",
        id="trigonometric",
    ),
    pytest.param("L: 30\nM: 15\n", "M=15 exceeds the permutation-sum cap 9", id="rational-far-above"),
]


@pytest.mark.parametrize("text, message", ABOVE_CAP)
def test_parse_rejects_m_above_the_permutation_cap(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


def test_parse_accepts_m_at_the_permutation_cap():
    assert parse_config_text("L: 18\nM: 9\n").magnons == 9
    assert parse_config_text("regime: trigonometric\nL: 10\nM: 9\n").magnons == 9


@pytest.mark.parametrize("text, message", ABOVE_CAP)
def test_cli_verify_rejects_m_above_the_permutation_cap(tmp_path, capsys, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_verify_refuses_the_retired_perm_cap_key(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG + "perm_cap: 9\n")
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert "line 9: unknown key 'perm_cap'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_wavefunction_rejects_roots_above_the_permutation_cap(tmp_path, capsys):
    # The document matches the config's lattice, but its 10 roots would need
    # a 10!-term formula table: bad input, reported on one line.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("regime: trigonometric\neta: 0.7\nL: 11\nM: 2\nxi: random\nseed: 2\n")
    cfg = load_config(cfg_path)
    lattice = cfg.resolve_lattice(np.random.default_rng(cfg.seed))
    q = tuple(0.1 * k + 0.05j for k in range(10))
    roots_path = tmp_path / "roots.txt"
    bethe.write_roots(bethe.BetheRoots(q, 1.0, "trigonometric", 0.7, lattice.xi), roots_path)
    wave_path = tmp_path / "wave.txt"
    argv = ["wavefunction", "--config", str(cfg_path), "--roots", str(roots_path)]
    assert main(argv + ["--out", str(wave_path)]) == 2
    assert capsys.readouterr().err == "error: permutation sum over 10! terms exceeds cap 9!\n"
    assert not wave_path.exists()


def test_cli_dwbc_runs(capsys):
    assert main(["dwbc", "--m", "4", "--seed", "5"]) == 0
    captured = capsys.readouterr().out
    # The same seeded draws as the command; |Z| < 1 here, so dividing by
    # max(1, |Z|) would print absolute differences instead.
    regime = RunConfig().regime()
    rng = np.random.default_rng(5)
    inp = dwbc.random_input(4, regime, rng)
    total = dwbc.dwbc_sum(inp)
    assert abs(total) < 1.0
    rel = abs(total - dwbc.dwbc_recurrence(inp)) / abs(total)
    perm = rng.permutation(4)
    shuffled = dwbc.DwbcInput(tuple(inp.mu[p] for p in perm), inp.q, regime)
    sym = abs(dwbc.dwbc_sum(shuffled) - total) / abs(total)
    assert f"relative diff   : {rel:.3e}\n" in captured
    assert f"row-permutation symmetry defect (measured): {sym:.3e}\n" in captured


def test_cli_dwbc_into_a_closed_pipe_exits_1_without_traceback():
    # `sixvertex dwbc --m 9 | head -1`: the reader leaves after the first
    # line, and the symmetry line, printed one M=9 sum later, meets a closed
    # pipe.  It used to end in a BrokenPipeError traceback.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "sixvertex", "dwbc", "--m", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    status = proc.wait(timeout=120)
    proc.stderr.close()
    assert first == b"M=9 rational partition function\n"
    assert "Traceback" not in err, err
    assert status == 1


@pytest.mark.parametrize("spread", ["-1.5", "0", "nan", "inf"])
def test_cli_rejects_bad_xi_spread(tmp_path, capsys, spread):
    # -1.5 used to reach numpy's uniform draw, 0 to spend every lattice draw
    path = tmp_path / "run.cfg"
    path.write_text(f"xi_spread: {spread}\n")
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == 2
    assert "xi_spread must be finite and positive" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_dwbc_rejects_negative_size(capsys):
    assert main(["dwbc", "--m", "-1"]) == 2
    assert "M=-1 must satisfy 0 <= M" in capsys.readouterr().err


def test_cli_dwbc_empty_size(capsys):
    assert main(["dwbc", "--m", "0"]) == 0
    assert "permutation sum : (1+0j)" in capsys.readouterr().out


def test_verify_with_no_roots_passes_every_check(regime):
    # no roots: the amplitude condition holds vacuously
    report = run_verify(RunConfig(family=regime.family, eta=regime.eta, length=4, magnons=0))
    assert [(r.name, r.note) for r in report.results if not r.passed] == []
    assert [r.residual for r in report.results if r.name == "periodicity"] == [0.0]


def test_run_wavefunction_zero_particles(tmp_path):
    cfg = RunConfig(length=2, magnons=0, xi=(0.0, 0.0))
    roots_path = tmp_path / "roots.txt"
    bethe.write_roots(
        bethe.BetheRoots((), 0.0, "rational", 1.0, (0.0, 0.0)), roots_path
    )
    stat = run_wavefunction(cfg, roots_path, tmp_path / "wave.txt")
    assert abs(stat.constant - 1.0) < 1e-15
    lines = (tmp_path / "wave.txt").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split() == ["re_psi", "im_psi", "provenance"]
    assert len(data) == 3


def test_write_report_creates_directory(tmp_path):
    cfg = RunConfig(length=2, magnons=1, xi=(0.3, -0.2), seed=1)
    report = run_verify(cfg)
    json_path, txt_path = write_report(report, tmp_path / "nested" / "dir")
    assert json_path.exists() and txt_path.exists()
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == "sixvertex-report-v1"
    assert [c["name"] for c in doc["checks"]] == [
        "unitarity",
        "yang_baxter",
        "vacuum_actions",
        "f_factorization",
        "f_matrix_elements",
        "f_closed_forms",
        "creation_commutation",
        "creation_exchange",
        "bae_solve",
        "eigenvector",
        "wavefunction_ratio",
        "wavefunction_alt_form",
        "periodicity",
        "dwbc_sum_vs_recurrence",
    ]
