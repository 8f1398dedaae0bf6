import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import Annulus, Ball, Box, StiffnessOperator, build_domain, fixedpoint, sample
from fraclab import cli, grids
from fraclab.cli import ExperimentConfig, run


def _child_env():
    # a child process imports the same fraclab as this one, installed or not
    src = str(Path(fraclab.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


SOLVE_CFG = """
[domain]
shape = ball
dimension = 1
nodes_per_axis = 40
margin_cells = 4
radius = 1.0

[problem]
s = 0.6

[run]
levels = 40,80,160
"""


def test_solve_csv_schema_and_exit0(tmp_path):
    cfg = _write(tmp_path, "solve.ini", SOLVE_CFG)
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    lines = (out / "solve.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "level,h,l2_error_vs_finest,ratio"
    assert len(lines) == 2 + 3


@pytest.mark.parametrize(
    "shape, keys, kind",
    [("annulus", "r_inner = 0.4\nr_outer = 1.0", Annulus), ("box", "lo = -1.0,-0.5\nhi = 1.0,0.5", Box)],
)
def test_solve_on_annulus_and_box(tmp_path, shape, keys, kind):
    text = (
        SOLVE_CFG.replace("shape = ball", f"shape = {shape}\n{keys}")
        .replace("dimension = 1", "dimension = 2")
        .replace("margin_cells = 4", "margin_cells = 2")
        .replace("levels = 40,80,160", "levels = 16,24")
    )
    cfg = _write(tmp_path, "solve.ini", text)
    assert isinstance(cli._build_domain(ExperimentConfig.load("solve", cfg)["domain"]).shape, kind)
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    assert len((out / "solve.csv").read_text().splitlines()) == 2 + 2


@pytest.mark.parametrize(
    "word, value",
    [("TRUE", True), ("Yes", True), ("1", True), ("oN", True), ("fAlSe", False), ("nO", False), ("0", False), ("Off", False)],
)
def test_origin_offset_reads_every_boolean_word(tmp_path, word, value):
    text = SOLVE_CFG.replace("radius = 1.0", f"radius = 1.0\norigin_offset = {word}")
    assert ExperimentConfig.load("solve", _write(tmp_path, "b.ini", text))["domain"]["origin_offset"] is value


def test_origin_offset_refuses_other_words_exit2(tmp_path, capsys):
    text = SOLVE_CFG.replace("radius = 1.0", "radius = 1.0\norigin_offset = maybe")
    assert run("solve", _write(tmp_path, "b.ini", text), tmp_path / "out") == 2
    assert "[domain] origin_offset: 'maybe' (expected a boolean, got 'maybe')" in capsys.readouterr().err


def test_rerun_bit_reproducible(tmp_path):
    # the 2D sweep's final residual comes from the FFT stiffness matvec
    cfgs = {
        "solve": _write(tmp_path, "solve.ini", SOLVE_CFG),
        "sweep": _write(tmp_path, "sweep2d.ini", SWEEP_2D_CFG),
    }
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for sub, cfg in cfgs.items():
        assert run(sub, cfg, out1) == 0
        assert run(sub, cfg, out2) == 0
        assert (out1 / f"{sub}.csv").read_bytes() == (out2 / f"{sub}.csv").read_bytes()
    assert (out1 / "sweep.csv").read_text().count("converged") == 2


def test_dense_array_beyond_memory_exit2(tmp_path, monkeypatch, capsys):
    # the table build's peak estimate, at lattice radius M = 4n: levels 40 and 80
    # need 538728 and 553128 bytes, level 160 needs 581928
    monkeypatch.setattr(grids, "available_memory", lambda: 553128)
    assert run("solve", _write(tmp_path, "solve.ini", SOLVE_CFG), tmp_path / "out") == 2
    assert "the 1D kernel table at n = 160, lattice radius 640, needs 0.555 MB" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solve.csv").exists()


@pytest.mark.parametrize("dimension", ["0", "4"])
@pytest.mark.parametrize("subcommand", ["solve", "iterate", "sweep", "certify", "probe"])
def test_domain_dimension_outside_1_to_3_exit2(tmp_path, capsys, table_builds, subcommand, dimension):
    # 0 ended in a numpy traceback (exit 1); 4 built a 4D table, then failed in origin_cell_moment
    text = {
        "solve": SOLVE_CFG,
        "iterate": SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", ""),
        "sweep": SWEEP_CFG,
        "certify": CERTIFY_CFG,
        "probe": PROBE_CFG,
    }[subcommand].replace("dimension = 1", f"dimension = {dimension}")
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"[domain] dimension: '{dimension}' (dimension must be 1, 2 or 3, got {dimension})" in err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()
    assert table_builds == []


def test_oversized_grid_refused_before_allocation_exit2(tmp_path, capsys, monkeypatch, table_builds):
    # the 2D mesh at n = 10^6 was allocated before any estimate: numpy's _ArrayMemoryError, exit 1
    monkeypatch.setattr(grids, "available_memory", lambda: 2**33)
    text = SOLVE_CFG.replace("dimension = 1", "dimension = 2").replace("levels = 40,80,160", "levels = 1000000,2000000")
    assert run("solve", _write(tmp_path, "big.ini", text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "the 2D grid at n = 1000000 needs 1.62e+07 MB, but only 8.19e+03 MB of memory is available" in err
    assert not (tmp_path / "out" / "solve.csv").exists()
    assert table_builds == []


def test_invalid_s_exit2(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "bad.ini",
        SOLVE_CFG.replace("s = 0.6", "s = 1.2"),
    )
    code = run("solve", cfg, tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert "(0,1)" in err


def test_unknown_key_exit2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", SOLVE_CFG + "\nwhatever = 3\n")
    assert run("solve", cfg, tmp_path / "out") == 2
    assert "unknown key" in capsys.readouterr().err


def _no_computation(*args, **kwargs):
    raise AssertionError("a config error must stop the run before any computation")


@pytest.mark.parametrize("spec", ["power:abc", "bump:", "const:1,5", "gauss:1"])
def test_malformed_field_spec_exit2(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    cfg = _write(tmp_path, "bad.ini", SOLVE_CFG.replace("s = 0.6", f"s = 0.6\nf = {spec}"))
    assert run("solve", cfg, tmp_path / "out") == 2
    assert f"[problem] f: {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["40,80,80", "80,40"])
@pytest.mark.parametrize("subcommand", ["solve", "probe"])
def test_levels_must_increase_exit2(tmp_path, capsys, monkeypatch, subcommand, levels):
    # a repeated level divided by a zero error; a decreasing one made the coarse level the reference
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    monkeypatch.setattr(cli, "regularity_probe", _no_computation)
    text = {"solve": SOLVE_CFG, "probe": PROBE_CFG}[subcommand]
    text = "\n".join(f"levels = {levels}" if line.startswith("levels") else line for line in text.splitlines())
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert "levels must be strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()


def test_lambda_sweep_checked_before_any_picard_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "picard_iterate", _no_computation)
    text = SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "lambda_sweep = 0.1,-0.2,0")
    assert run("sweep", _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert "[run] lambda_sweep: '0.1,-0.2,0' (must be positive and finite, got -0.2)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "subcommand, key, value, bad",
    [
        ("iterate", "lambda", "nan", "nan"),
        ("iterate", "lambda", "inf", "inf"),
        ("sweep", "lambda_sweep", "0.1,inf", "inf"),
        ("certify", "lambda_values", "-1.0,inf", "-1.0"),
        ("certify", "lambda_values", "1.0,nan", "nan"),
    ],
)
def test_nonpositive_or_nonfinite_lambda_exit2(tmp_path, capsys, monkeypatch, subcommand, key, value, bad):
    # these loaded: iterate and sweep then failed in the first solve with a misleading
    # message, and certify wrote a row for each
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    if subcommand == "certify":
        text = CERTIFY_CFG.replace("lambda_values = 1.0", f"lambda_values = {value}")
    elif subcommand == "sweep":
        text = SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", f"lambda_sweep = {value}")
    else:
        text = SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "").replace("f = bump:0.9", f"f = bump:0.9\nlambda = {value}")
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{key}: {value!r} (must be positive and finite, got {bad})" in err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()


@pytest.mark.parametrize("spec", ["bump:0", "bump:-0.5", "bump:nan"])
def test_nonpositive_bump_radius_exit2(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    cfg = _write(tmp_path, "bad.ini", SOLVE_CFG.replace("s = 0.6", f"s = 0.6\nf = {spec}"))
    assert run("solve", cfg, tmp_path / "out") == 2
    assert f"bump radius must be positive, got {spec!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solve.csv").exists()


@pytest.mark.parametrize("spec", ["power:nan", "power:inf", "power:-inf", "const:inf", "const:-inf", "bump:inf"])
@pytest.mark.parametrize("key", ["mu", "f"])
def test_nonfinite_field_number_exit2(tmp_path, capsys, monkeypatch, key, spec):
    # a non-finite mu makes mu * D_s^2(0) a NaN, so the number is refused before any domain is built
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    text = SWEEP_CFG.replace({"mu": "mu = const:1.0", "f": "f = bump:0.9"}[key], f"{key} = {spec}")
    assert run("sweep", _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert f"field spec {spec!r} needs a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("digits", ["-3", "0", "18"])
def test_precision_out_of_range_exit2(tmp_path, capsys, monkeypatch, digits):
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    cfg = _write(tmp_path, "bad.ini", SOLVE_CFG + f"\n[output]\nprecision = {digits}\n")
    assert run("solve", cfg, tmp_path / "out") == 2
    assert f"precision must lie in 1..17 significant digits, got {digits}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solve.csv").exists()


def test_fmt_keeps_the_sign_of_infinity():
    assert (cli._fmt(math.inf, 17), cli._fmt(-math.inf, 17)) == ("inf", "-inf")


# the grid subcommands run on numpy alone: the FFTs are numpy.fft's, and scipy
# serves only the oracles, which import scipy.special and scipy.integrate on
# first use; nor do they load numpy.ma, which np.unique imports (16 ms, 1.3 MB)
def test_import_cli_leaves_scipy_integrate_unloaded(tmp_path):
    iterate_cfg = SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "")
    args = []
    for sub, text in (
        ("solve", SOLVE_CFG), ("sweep", SWEEP_2D_CFG), ("certify", CERTIFY_CFG), ("iterate", iterate_cfg),
        ("probe", PROBE_CFG),
    ):
        args += [sub, str(_write(tmp_path, f"{sub}.ini", text))]
    code = (
        "import sys, fraclab.cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(*scipy_modules())\n"
        "for sub, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert fraclab.cli.run(sub, path, path + '.out') == 0, sub\n"
        "print(*scipy_modules())\n"
        "print('numpy.ma' in sys.modules)\n"
        "fraclab.hardy_constant_mc(2, 0.6, 2.0, samples=1000)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "", "False", "True"]


def _fine_and_coarse(N, shape):
    """A fine function and the coarse node sets _interp_to must hit.

    The function takes both signs, is -0.0 where x_1 > 0.2, and is nonzero
    one node inside the edge of the grid, so a value extrapolated beyond the
    node span would not be 0.  The coarse grids are three coarser grids on
    the same shape and one on a larger shape, whose outer nodes lie beyond
    the fine nodes.
    """

    def grid(n, scale=1.0):
        if shape == "ball":
            return build_domain(Ball(center=(0.0,) * N, radius=scale), n, margin_cells=1)
        return build_domain(Box(lo=(-scale,) * N, hi=(0.5 * scale,) * N), n, margin_cells=1)

    n_c = {1: 107, 2: 32, 3: 8}[N]
    fine = grid(3 * n_c)

    def f(*x):
        return np.where(x[0] > 0.2, -0.0, np.sin(3.0 * sum((k + 1) * xk for k, xk in enumerate(x))) - 0.2)

    u = sample(f, fine)
    coarse = [g.interior_coords for g in (grid(n_c), grid(n_c + 1), grid(2 * n_c - 1), grid(n_c, 1.3))]
    # fine nodes, among them the first and the last, nodes just outside the span, and points between nodes
    axes = [
        np.concatenate([g[:3], g[-3:], [g[0] - 0.01, g[-1] + 0.01], np.linspace(g[0], g[-1], 7)])
        for g in fine.axis_centers
    ]
    coarse.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, N))
    return u, coarse


@pytest.mark.parametrize("shape", ["ball", "box"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_interp_to_matches_regular_grid_interpolator(N, shape):
    from scipy.interpolate import RegularGridInterpolator  # the oracle; the package does not import it

    u, coarse = _fine_and_coarse(N, shape)
    axes = u.domain.axis_centers
    oracle = RegularGridInterpolator(tuple(axes), u.values, bounds_error=False, fill_value=0.0)
    first, last = np.array([g[0] for g in axes]), np.array([g[-1] for g in axes])
    outside = 0
    for x in coarse:
        got = cli._interp_to(x, u)
        assert got.tobytes() == oracle(x).tobytes()  # sign of zero included
        out = np.any((x < first) | (x > last), axis=1)
        assert np.all(got[out] == 0.0)
        outside += int(out.sum())
    assert outside > 0


def test_missing_config_exit2(tmp_path):
    assert run("solve", tmp_path / "nope.ini", tmp_path / "out") == 2


SWEEP_CFG = """
[domain]
dimension = 1
nodes_per_axis = 80
margin_cells = 8

[problem]
s = 0.6
rhs_kind = D_s2
mu = const:1.0
f = bump:0.9

[run]
tolerance = 1e-8
max_iter = 80
lambda_sweep = 0.05,0.1
"""


SWEEP_2D_CFG = """
[domain]
dimension = 2
nodes_per_axis = 24
margin_cells = 2

[problem]
s = 0.6
rhs_kind = D_s2
mu = const:1.0
f = bump:0.9

[run]
tolerance = 1e-8
max_iter = 80
lambda_sweep = 0.05,0.1
"""


def test_sweep_schema(tmp_path):
    cfg = _write(tmp_path, "sweep.ini", SWEEP_CFG)
    out = tmp_path / "out"
    assert run("sweep", cfg, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "lambda,verdict,iterations,final_residual"
    assert len(lines) == 2 + 2
    assert "converged" in lines[2]


def test_B_sq_alpha_sweep_at_order_above_2(tmp_path):
    # s*q = 2.25: the sweep exited 2 after its first solve, naming the kernel order and no key
    text = SWEEP_CFG.replace("s = 0.6", "s = 0.9").replace(
        "rhs_kind = D_s2", "rhs_kind = B_sq_alpha\nq = 2.5\nalpha = 1.5"
    )
    out = tmp_path / "out"
    assert run("sweep", _write(tmp_path, "sweep.ini", text), out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert [row.split(",")[1:3] for row in rows] == [["converged", "8"], ["converged", "9"]]


def test_B_sq_alpha_sweep_refuses_order_past_the_table_range(tmp_path, monkeypatch, capsys):
    # s*q = 3.15 >= N+2: refused by key before the first solve, not by the table build after it
    solves = []
    solve_vector = StiffnessOperator.solve_vector
    monkeypatch.setattr(StiffnessOperator, "solve_vector", lambda self, b: solves.append(1) or solve_vector(self, b))
    text = SWEEP_CFG.replace("s = 0.6", "s = 0.9").replace(
        "rhs_kind = D_s2", "rhs_kind = B_sq_alpha\nq = 3.5\nalpha = 1.5"
    )
    assert run("sweep", _write(tmp_path, "sweep.ini", text), tmp_path / "out") == 2
    assert not (tmp_path / "out" / "sweep.csv").exists()
    assert solves == []
    assert capsys.readouterr().err == "error: B_sq_alpha requires s*q < N+2 = 3, got s=0.9, q=3.5\n"


def _sweep_domain_bbox():
    return build_domain(Ball(center=(0.0,), radius=1.0), 80, margin_cells=8).bbox_diameter


def test_sweep_reads_no_history(tmp_path, monkeypatch, table_builds):
    # sweep writes no history column, so it computes none and needs only the solver's table
    calls = {"frac_power": 0, "energy": 0}
    frac_power, energy = fixedpoint.apply_frac_power, StiffnessOperator.energy

    def counted_frac_power(*args, **kwargs):
        calls["frac_power"] += 1
        return frac_power(*args, **kwargs)

    def counted_energy(*args, **kwargs):
        calls["energy"] += 1
        return energy(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "apply_frac_power", counted_frac_power)
    monkeypatch.setattr(StiffnessOperator, "energy", counted_energy)
    assert run("sweep", _write(tmp_path, "sweep.ini", SWEEP_CFG), tmp_path / "out") == 0
    assert calls == {"frac_power": 0, "energy": 0}
    assert table_builds == [(1.2, 4.0 * _sweep_domain_bbox())]


def test_iterate_uses_solver_cutoff(tmp_path, monkeypatch, table_builds):
    # the right-hand side and the history use the configured cutoff, not the default
    text = SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "").replace(
        "margin_cells = 8", "margin_cells = 8\ncutoff_factor = 6.0"
    )
    assert run("iterate", _write(tmp_path, "it.ini", text), tmp_path / "out") == 0
    R = 6.0 * _sweep_domain_bbox()
    assert sorted(table_builds) == [(0.6, R), (1.2, R)]


def test_run_frees_its_domains(tmp_path, monkeypatch, no_gc):
    # with the cycle collector off, reference counting alone must free every
    # domain of a run, and with it the memoized tables
    built = []
    build = cli._build_domain

    def tracked(dcfg):
        dom = build(dcfg)
        built.append(weakref.ref(dom))
        return dom

    monkeypatch.setattr(cli, "_build_domain", tracked)
    assert run("sweep", _write(tmp_path, "sweep.ini", SWEEP_CFG), tmp_path / "out") == 0
    assert built and all(ref() is None for ref in built)


HARDY_CFG = """
[run]
triples = 2:0.45:2.0,3:0.3:2.0
mc_samples = 20000
"""


def test_hardy_small_ps_exit0(tmp_path):
    cfg = _write(tmp_path, "hardy.ini", HARDY_CFG)
    out = tmp_path / "out"
    assert run("hardy", cfg, out) == 0
    lines = (out / "hardy.csv").read_text().splitlines()
    assert lines[1] == "N,s,p,lambda_quad,error_estimate,lambda_mc,mc_stderr,rel_diff"
    assert len(lines) == 2 + 2


def test_hardy_refuses_negative_mc_samples(tmp_path, capsys):
    cfg = _write(tmp_path, "hardy.ini", HARDY_CFG.replace("mc_samples = 20000", "mc_samples = -5"))
    assert run("hardy", cfg, tmp_path / "out") == 2
    assert "samples must be an integer >= 2, got -5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        (("2:0.45:2.0", "2:abc:2"), "hardy triple must be N:s:p, got '2:abc:2'"),
        (("3:0.3:2.0", "3:0.3:2.0,4:0.5:2"), "implemented for N in {2,3}, got 4"),
        (("mc_samples = 20000", "mc_samples = 1"), "samples must be an integer >= 2, got 1"),
        (("3:0.3:2.0", "3:0.3:nan"), "p must exceed 1, got nan"),
        # ps >= N exited 1 with an OverflowError, a TypeError and a ZeroDivisionError
        (("3:0.3:2.0", "3:0.3:2.0,2:0.9:3.0"), "p*s must lie in (0,2), got 2.7"),
        (("3:0.3:2.0", "3:0.3:2.0,3:0.9:3.5"), "p*s must lie in (0,3), got 3.15"),
        (("3:0.3:2.0", "3:0.3:2.0,2:0.5:4.0"), "p*s must lie in (0,2), got 2.0"),
        # default_rng(-1) raised a ValueError from a pool thread after the quadrature: exit 1
        (("mc_samples = 20000", "mc_samples = 20000\nseed = -1"), "seed must be an integer >= 0, got -1"),
    ],
)
def test_hardy_checks_every_triple_before_quadrature(tmp_path, capsys, monkeypatch, change, message):
    calls = []
    monkeypatch.setattr(cli, "hardy_constant", lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, "hardy.ini", HARDY_CFG.replace(*change))
    assert run("hardy", cfg, tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "hardy.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_hardy_refuses_a_non_finite_mc_estimate(tmp_path, capsys, monkeypatch):
    from fraclab import seminorms

    monkeypatch.setattr(seminorms, "_phi_closed", lambda N, beta, sigma, table: np.full_like(sigma, np.inf))
    assert run("hardy", _write(tmp_path, "hardy.ini", HARDY_CFG), tmp_path / "out") == 3
    assert "Monte-Carlo Hardy estimate inf with standard error nan is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hardy.csv").exists()


EXP_CFG = """
[run]
propositions = P3.1,L-LPPS
dimension = 2
s = 3/4
t_values = 1/2
m_values = 1,2
"""


def test_exponents_exact_rows(tmp_path):
    cfg = _write(tmp_path, "exp.ini", EXP_CFG)
    out = tmp_path / "out"
    assert run("exponents", cfg, out) == 0
    text = (out / "exponents.csv").read_text()
    assert "P3.1,1,2,3/4,1/2,1,1,2,false,ok" in text
    assert "P3.1,3,2,3/4,1/2,2,1,8,false,ok" in text
    assert "L-LPPS,1,2,3/4,,1,1,4,false,ok" in text


def test_exponents_writes_a_rejected_row(tmp_path):
    # s = 1/2 lies outside the window (1/2, 1) of the statements
    text = EXP_CFG.replace("s = 3/4", "s = 1/2").replace("P3.1,L-LPPS", "L-LPPS").replace("m_values = 1,2", "m_values = 1")
    out = tmp_path / "out"
    assert run("exponents", _write(tmp_path, "exp.ini", text), out) == 0
    lines = (out / "exponents.csv").read_text().splitlines()
    assert lines[2:] == ['L-LPPS,,2,1/2,,1,,,,"rejected:s in (1/2, 1)"']


@pytest.mark.parametrize(
    "key, value", [("s", "abc"), ("m_values", "1,x"), ("t_values", "1/0")], ids=["s", "m_values", "t_values"]
)
def test_exponents_refuses_a_malformed_rational_at_load(tmp_path, capsys, key, value):
    # these raised ValueError or ZeroDivisionError out of run
    text = _with_key(EXP_CFG, "run", key, value)
    assert run("exponents", _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"invalid value for [run] {key}: {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "exponents.csv").exists()


def test_limits_errors_fall_as_s_grows(tmp_path):
    cfg = _write(tmp_path, "limits.ini", "[run]\ns_values = 0.9,0.95\nnodes_per_axis = 600\n")
    out = tmp_path / "out"
    assert run("limits", cfg, out) == 0
    lines = (out / "limits.csv").read_text().splitlines()
    assert lines[1] == "s,frac_laplacian_rel_err,grad_sq_rel_err"
    (s1, a1, d1), (s2, a2, d2) = [map(float, row.split(",")) for row in lines[2:]]
    assert (s1, s2) == (0.9, 0.95)
    assert 0.0 < a2 < a1 and 0.0 < d2 < d1


def test_iterate_zero_forcing(tmp_path):
    cfg = _write(
        tmp_path,
        "it.ini",
        SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "").replace(
            "f = bump:0.9", "f = const:0.0"
        ),
    )
    # strip the now-invalid sweep-only key from the run section
    text = cfg.read_text().replace("max_iter = 80", "max_iter = 10")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("iterate", cfg, out) == 0
    lines = (out / "iterate.csv").read_text().splitlines()
    assert "converged" in lines[-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dimension", ["1", "2"])
def test_iterate_at_huge_lambda_diverges(tmp_path, dimension):
    # the solve overflowed at this scale and ran 500 iterations on NaNs (exit 3)
    text = (
        SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", "")
        .replace("dimension = 1", f"dimension = {dimension}")
        .replace("nodes_per_axis = 80", "nodes_per_axis = 24")
        .replace("margin_cells = 8", "margin_cells = 2")
        .replace("f = bump:0.9", "f = bump:0.7\nlambda = 1e200")
    )
    out = tmp_path / "out"
    assert run("iterate", _write(tmp_path, "it.ini", text), out) == 0
    row = (out / "iterate.csv").read_text().splitlines()[-1].split(",")
    assert row[5] == "diverged"
    # energy_norm read inf (1D) or nan (2D) when <A u, u> overflowed, and
    # frac_half_norm read inf when its L^2 sum did
    assert 0.0 < float(row[2]) < math.inf
    assert 0.0 < float(row[3]) < math.inf


PROBE_CFG = """
[domain]
dimension = 1

[run]
beta = 0.0
s = 0.6
t = 0.5
p = 2.6
m = 1.0
levels = 32,128,512
"""


def test_probe_cli(tmp_path):
    cfg = _write(tmp_path, "probe.ini", PROBE_CFG)
    out = tmp_path / "out"
    assert run("probe", cfg, out) == 0
    text = (out / "probe.csv").read_text()
    assert text.splitlines()[1] == "level,measured,growth_factor,route,classification"
    assert "bounded" in text


@pytest.mark.parametrize(
    "rhs,extra,sigma",
    [("riesz_grad_q", "q = 1.5", 0.6), ("B_sq_alpha", "q = 1.5\nalpha = 1.2", 0.6 * 1.5)],
    ids=["riesz_grad_q", "B_sq_alpha"],
)
def test_sweep_ignores_cache_dir(tmp_path, monkeypatch, table_builds, rhs, extra, sigma):
    # FRACLAB_CACHE_DIR does nothing: every run builds each table it reads and writes no file
    text = SWEEP_CFG.replace("rhs_kind = D_s2", f"rhs_kind = {rhs}\n{extra}").replace(
        "max_iter = 80", "max_iter = 10"
    )
    cfg = _write(tmp_path, "sweep.ini", text)
    assert run("sweep", cfg, tmp_path / "o1") == 0
    cachedir = tmp_path / "cache"
    cachedir.mkdir()
    monkeypatch.setenv("FRACLAB_CACHE_DIR", str(cachedir))
    assert run("sweep", cfg, tmp_path / "o2") == 0
    assert list(cachedir.iterdir()) == []
    R = 4.0 * _sweep_domain_bbox()
    assert sorted(table_builds) == sorted([(1.2, R), (sigma, R)] * 2)
    assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()


CERTIFY_CFG = """
[domain]
dimension = 1
nodes_per_axis = 40
margin_cells = 4

[problem]
s = 0.6

[run]
lambda_values = 1.0
"""


@pytest.mark.parametrize("rho", ["-0.5", "0"])
def test_certify_names_a_nonpositive_radius(tmp_path, capsys, monkeypatch, rho):
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    text = CERTIFY_CFG.replace("lambda_values = 1.0", f"lambda_values = 1.0\nbump_rhos = 0.3,{rho}")
    assert run("certify", _write(tmp_path, "c.ini", text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bump_rhos" in err and f"must be positive and finite, got {float(rho)}" in err
    assert "clipped" not in err


def test_certify_honours_cutoff_factor(tmp_path, table_builds):
    # the cutoff belongs to the domain, so certify builds its table there
    text = CERTIFY_CFG.replace("margin_cells = 4", "margin_cells = 4\ncutoff_factor = 6.0")
    assert run("certify", _write(tmp_path, "c.ini", text), tmp_path / "out") == 0
    bbox = build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4).bbox_diameter
    assert table_builds == [(1.2, 6.0 * bbox)]


def test_certify_single_bump_centre_at_origin(tmp_path):
    text = CERTIFY_CFG.replace("lambda_values = 1.0", "lambda_values = 1.0\nbump_centers = 1")
    assert run("certify", _write(tmp_path, "c.ini", text), tmp_path / "out") == 0
    rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[2:]
    assert rows and all(',"bump[c=(0),rho=' in row for row in rows)


@pytest.mark.parametrize("n_c", [0, -2])
def test_certify_needs_a_bump_centre(tmp_path, capsys, n_c):
    text = CERTIFY_CFG.replace("lambda_values = 1.0", f"lambda_values = 1.0\nbump_centers = {n_c}")
    assert run("certify", _write(tmp_path, "c.ini", text), tmp_path / "out") == 2
    assert f"bump_centers must be at least 1, got {n_c}" in capsys.readouterr().err


CERTIFY_3D_CFG = """
[domain]
dimension = 3
nodes_per_axis = 9
margin_cells = 1

[problem]
s = 0.5

[run]
lambda_values = 1.0
bump_centers = 2
"""


def test_certify_names_bumps_clipped_below_h(tmp_path, capsys):
    # every centre sits 0.8 from the origin, so each clipped radius is 0.19 < h
    assert run("certify", _write(tmp_path, "c3.ini", CERTIFY_3D_CFG), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "all 24 bumps dropped" in err and "clipped" in err and "h = 0.2857" in err
    assert "nonpositive" not in err


def test_power_field_refuses_a_node_at_the_origin(tmp_path, capsys):
    # 81 nodes on a symmetric box put the middle node at the origin
    text = SWEEP_CFG.replace("nodes_per_axis = 80", "nodes_per_axis = 81").replace("f = bump:0.9", "f = power:0.5")
    assert run("sweep", _write(tmp_path, "p.ini", text), tmp_path / "out") == 2
    assert "grid has a node at the origin; use origin_offset=True" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "exp.ini", EXP_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "fraclab.cli", "exponents", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0


def test_config_hash_changes_with_values(tmp_path):
    c1 = ExperimentConfig.load("exponents", _write(tmp_path, "a.ini", EXP_CFG))
    c2 = ExperimentConfig.load(
        "exponents", _write(tmp_path, "b.ini", EXP_CFG.replace("m_values = 1,2", "m_values = 1,3"))
    )
    assert c1.resolved_hash() != c2.resolved_hash()


def _with_key(text, section, key, value):
    """The config text with [section] key = value, in place of any value the text gives the key."""
    lines = text.strip().splitlines()
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    start = lines.index(f"[{section}]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    body = [line for line in lines[start:end] if line.split("=")[0].strip() != key]
    return "\n".join(lines[:start] + [f"{key} = {value}"] + body + lines[end:]) + "\n"


# (subcommand, section, key, must be positive, takes a list) for every float key of
# cli.SCHEMAS but the lambda and bump_rhos keys, which the tests above cover
FLOAT_KEYS = [
    ("solve", "domain", "radius", True, False),
    ("solve", "domain", "r_inner", False, False),
    ("solve", "domain", "r_outer", False, False),
    ("solve", "domain", "lo", False, True),
    ("solve", "domain", "hi", False, True),
    ("solve", "domain", "center", False, True),
    ("solve", "domain", "cutoff_factor", True, False),
    ("solve", "problem", "s", False, False),
    ("iterate", "problem", "s", False, False),
    ("iterate", "problem", "m", False, False),
    ("iterate", "problem", "t", False, False),
    ("iterate", "problem", "q", False, False),
    ("iterate", "problem", "alpha", False, False),
    ("iterate", "run", "tolerance", True, False),
    ("iterate", "run", "divergence_norm", True, False),
    ("sweep", "run", "tolerance", True, False),
    ("hardy", "run", "tol", True, False),
    ("certify", "problem", "s", False, False),
    ("certify", "problem", "mu1", True, False),
    ("probe", "domain", "radius", True, False),
    ("probe", "run", "beta", False, False),
    ("probe", "run", "s", False, False),
    ("probe", "run", "t", False, False),
    ("probe", "run", "p", False, False),
    ("probe", "run", "m", False, False),
    ("limits", "run", "s_values", False, True),
    ("limits", "run", "radius", True, False),
]


@pytest.mark.parametrize(
    "subcommand, section, key, value, message",
    [
        pytest.param(
            sub, sec, key, f"0.5,{bad}" if is_list else bad,
            f"must be positive and finite, got {float(bad)}" if positive else f"must be finite, got {float(bad)}",
            id=f"{sub}-{key}-{bad}",
        )
        for sub, sec, key, positive, is_list in FLOAT_KEYS
        for bad in ["nan", "inf"] + (["-1"] if positive else [])
    ],
)
def test_every_float_key_refuses_a_bad_value_at_load(tmp_path, capsys, table_builds, subcommand, section, key, value, message):
    # NaN passed the x <= 0 library checks: tolerance = nan ran to max_iter, tol = nan
    # switched off the quadrature refusal, mu1 = nan wrote a NaN certificate, and
    # cutoff_factor = inf ended in an OverflowError traceback
    base = {
        "solve": SOLVE_CFG,
        "iterate": SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", ""),
        "sweep": SWEEP_CFG,
        "hardy": HARDY_CFG,
        "certify": CERTIFY_CFG,
        "probe": PROBE_CFG,
        "limits": "",
    }[subcommand]
    text = _with_key(base, section, key, value)
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert f"invalid value for [{section}] {key}: {value!r} ({message})" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()
    assert table_builds == []


@pytest.mark.parametrize(
    "subcommand, section, key, value, message",
    [
        ("solve", "problem", "s", "1.2", "s must lie in (0,1), got 1.2"),
        ("iterate", "problem", "s", "1.2", "s must lie in (0,1), got 1.2"),
        ("sweep", "problem", "s", "1.2", "s must lie in (0,1), got 1.2"),
        ("certify", "problem", "s", "1.2", "s must lie in (0,1), got 1.2"),
        ("probe", "run", "s", "1.2", "s must lie in (0,1), got 1.2"),
        ("probe", "run", "t", "0", "t must lie in (0,1), got 0.0"),
        ("probe", "run", "p", "0.5", "p must be >= 1, got 0.5"),
        ("probe", "run", "m", "0.5", "m must be >= 1, got 0.5"),
        ("limits", "run", "s_values", "0.5,1.2", "s must lie in (0,1), got 1.2"),
    ],
    ids=["solve-s", "iterate-s", "sweep-s", "certify-s", "probe-s", "probe-t", "probe-p", "probe-m", "limits-s_values"],
)
def test_out_of_range_order_or_exponent_refused_at_load(tmp_path, capsys, table_builds, subcommand, section, key, value, message):
    # these were refused by the library after the domain was built, or, for probe's m, not at all
    base = {
        "solve": SOLVE_CFG,
        "iterate": SWEEP_CFG.replace("lambda_sweep = 0.05,0.1", ""),
        "sweep": SWEEP_CFG,
        "certify": CERTIFY_CFG,
        "probe": PROBE_CFG,
        "limits": "",
    }[subcommand]
    text = _with_key(base, section, key, value)
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert f"invalid value for [{section}] {key}: {value!r} ({message})" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()
    assert table_builds == []


@pytest.mark.parametrize("subcommand", ["solve", "probe"])
def test_levels_need_two_entries_at_load(tmp_path, capsys, monkeypatch, subcommand):
    monkeypatch.setattr(cli, "_build_domain", _no_computation)
    monkeypatch.setattr(cli, "regularity_probe", _no_computation)
    text = _with_key({"solve": SOLVE_CFG, "probe": PROBE_CFG}[subcommand], "run", "levels", "40")
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert "[run] levels: '40' (levels needs at least two entries, got 1)" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()


def test_no_schema_key_parses_a_plain_float():
    # float() accepts nan and inf; every float key goes through a parser that refuses them
    plain = [(sub, sec, key) for sub, schema in cli.SCHEMAS.items() for sec, keys in schema.items()
             for key, (parse, _) in keys.items() if parse is float]
    assert plain == []


def test_certify_evaluates_each_member_once(tmp_path, monkeypatch):
    # lambda** is fixed by the family: every member was evaluated once per lambda value
    from fraclab import nonexistence

    seen = []
    certificate = nonexistence._certificate

    def counted(phi, f, mu1, s, phi_id):
        seen.append(phi_id)
        return certificate(phi, f, mu1, s, phi_id)

    monkeypatch.setattr(nonexistence, "_certificate", counted)
    text = CERTIFY_CFG.replace("lambda_values = 1.0", "lambda_values = 1.0,10.0,100.0")
    assert run("certify", _write(tmp_path, "c.ini", text), tmp_path / "out") == 0
    rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    # 3 centres x 3 radii, none clipped below h (27 calls when each lambda evaluated the family)
    assert len(seen) == 9
    assert {row.split(",", 3)[3].strip('"') for row in rows} <= set(seen)


@pytest.mark.parametrize(
    "subcommand, key",
    [
        ("sweep", "lambda_sweep"),
        ("certify", "lambda_values"),
        ("hardy", "triples"),
        ("limits", "s_values"),
        ("exponents", "m_values"),
        ("exponents", "propositions"),
    ],
)
def test_empty_list_refused_at_load(tmp_path, capsys, monkeypatch, subcommand, key):
    # each of these exited 0 with a CSV of the hash and header lines only
    monkeypatch.setitem(cli._DRIVERS, subcommand, _no_computation)
    base = {"sweep": SWEEP_CFG, "certify": CERTIFY_CFG, "hardy": HARDY_CFG, "limits": "", "exponents": EXP_CFG}
    text = _with_key(base[subcommand], "run", key, ",")
    assert run(subcommand, _write(tmp_path, "bad.ini", text), tmp_path / "out") == 2
    assert f"invalid value for [run] {key}: ',' (the list needs at least one entry)" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{subcommand}.csv").exists()


def test_empty_t_values_still_means_no_t(tmp_path):
    cfg = ExperimentConfig.load("exponents", _write(tmp_path, "e.ini", _with_key(EXP_CFG, "run", "t_values", ",")))
    assert cfg["run"]["t_values"] == []


def test_hardy_refuses_mc_samples_beyond_memory_at_load(tmp_path, capsys, monkeypatch):
    # the oracle allocated its values array with no refusal, after the quadrature had run
    from fraclab import seminorms

    calls = []
    monkeypatch.setattr(cli, "hardy_constant", lambda *args, **kwargs: calls.append(args))
    need = seminorms._mc_bytes(20000)
    monkeypatch.setattr(grids, "available_memory", lambda: need - 1)
    assert run("hardy", _write(tmp_path, "hardy.ini", HARDY_CFG), tmp_path / "out") == 2
    assert f"the Monte-Carlo Hardy oracle at 20000 samples needs {need / 2**20:.3g} MB" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "hardy.csv").exists()
