"""Package layout guards: the public names, the private names that cross
modules, the one home of the transforms, and the one pipeline of the
command line."""

from __future__ import annotations

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import magma_lab

PUBLIC_API = [
    "__version__",
    # grid
    "TorusGrid", "Field", "FieldStats", "SnapshotFormatError",
    "spectral_derivative", "hs_norm", "field_stats", "write_snapshot",
    "read_snapshot",
    # elliptic
    "EllipticProblem", "CGInfo", "NonPositiveCoefficient", "NotConverged",
    "NearDegenerateWarning", "apply_L", "solve_L_info",
    # evolution
    "EvolveConfig", "Verdict", "BlowupReport", "EvolveResult",
    "PositivityLost", "monitor_index", "rhs", "step_rk4", "evolve",
    "measure_mass",
    # profile
    "ProfileParams", "ProfileError", "Indeterminate", "BracketInvalid",
    "OrderingViolated", "TailTooShort", "DomainTooSmall", "StructureReport",
    "ShotClass", "ShotOutcome", "ShotSamples", "ProfileSolution", "DecayFit",
    "Rescaling", "RescaledProfile", "F1", "F2", "F3", "structure_fn",
    "mu_curve", "q_star", "structure_report", "integrate_shot", "find_mu_c",
    "decay_check", "rescale", "embed_on_torus", "ode_residual",
    "write_profile_csv", "read_profile_csv",
    # diagnostics
    "ConservedEnergyParams", "conserved_energy", "energy_series",
    "DispersionFit", "fit_dispersion", "NoPeak", "PeakTrack", "track_peak",
]


def test_public_api_is_pinned():
    assert magma_lab.__all__ == PUBLIC_API
    for name in PUBLIC_API[1:]:
        obj = getattr(magma_lab, name)
        assert obj.__module__.startswith("magma_lab."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


PUBLIC_RECORDS = {
    # grid
    "TorusGrid": ("n_points", "lengths"),
    "Field": ("grid", "values"),
    "FieldStats": ("min", "max", "inv_sup"),
    # elliptic
    "EllipticProblem": ("a", "g", "tol", "max_iter"),
    "CGInfo": ("iterations", "residual"),
    # evolution
    "EvolveConfig": ("n_exponent", "dt", "t_end", "s_monitor", "blowup_threshold",
                     "elliptic_tol", "snapshot_every"),
    "BlowupReport": ("verdict", "t_event", "times", "monitor", "mass", "min_phi",
                     "cg_iterations"),
    "EvolveResult": ("snapshots", "report"),
    # profile
    "ProfileParams": ("d", "n", "c", "mu"),
    "StructureReport": ("Q_star", "Q1", "Q2", "Q3", "mu1_min", "mu2_min", "mu3_min"),
    "ShotOutcome": ("classification", "r_star", "tau", "subcase", "Q_tau"),
    "ShotSamples": ("r", "Q", "Q_r", "Q_rr"),
    "ProfileSolution": ("params", "samples", "Q_tau", "decay"),
    "DecayFit": ("M", "k"),
    "Rescaling": ("c_bar", "r_scale", "mu_bar"),
    "RescaledProfile": ("scaling", "r", "Q"),
    # diagnostics
    "ConservedEnergyParams": ("n",),
    "DispersionFit": ("omega_formula", "omega_measured", "relative_error"),
    "PeakTrack": ("positions", "speed"),
}


def test_public_record_fields_are_pinned():
    # a field that restates another, or an input, is a second copy of it; the
    # public records hold these fields, in this order, and no others
    records = {name: tuple(f.name for f in dataclasses.fields(obj))
               for name in magma_lab.__all__
               if dataclasses.is_dataclass(obj := getattr(magma_lab, name))}
    assert records == PUBLIC_RECORDS


def test_private_names_cross_modules_only_where_pinned():
    # a private name taken from another module is where a second copy of a
    # formula starts; these are the ones the package takes
    imported = sorted(
        (path.stem, node.module, alias.name)
        for path in Path(magma_lab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if re.match(r"_(?!_)", alias.name))
    assert imported == [
        ("cli", "evolution", "_state_row"), ("cli", "profile", "_csv"),
        ("cli", "profile", "_fmt"),
        ("evolution", "elliptic", "_solve_raw"),
    ]


def test_only_grid_touches_the_transforms():
    # the rfft layout (transforms, their shape and axes) has one home
    files = sorted(Path(magma_lab.__file__).parent.glob("*.py"))
    assert "grid.py" in [f.name for f in files]
    pattern = re.compile(r"\b(?:np|numpy)\.fft\b|\brfft_shape\b")
    offenders = [f.name for f in files if f.name != "grid.py" and pattern.search(f.read_text())]
    assert offenders == []


def test_cli_runs_every_subcommand_through_main():
    # main alone merges the config and writes the run; a handler returns its
    # report and never prints
    source = (Path(magma_lab.__file__).parent / "cli.py").read_text()
    for name in ("_merge_config", "_write_run"):
        assert len(re.findall(rf"(?<!def ){name}\(", source)) == 1, name
    handlers = [node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 7
    printing = [h.name for h in handlers for node in ast.walk(h)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
    assert printing == []


def test_only_the_dop853_generator_runs_generated_code():
    # exec/compile/eval has one call in the package: the one that turns
    # SciPy's tableau into the shooting stepper
    def calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("exec", "compile", "eval")]

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(magma_lab.__file__).parent.glob("*.py"))}
    found = [(name, node) for name, tree in trees.items() for node in calls(tree)]
    [generator] = [node for node in trees["profile.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "_load_dop853"]
    assert [(name, node.func.id) for name, node in found] == [("profile.py", "exec")]
    assert calls(generator) == [found[0][1]]


def test_shooting_reads_scipys_tableau_not_its_dense_output():
    # profile._dense reads every DOP853 interpolant; SciPy's dense-output
    # classes are the tests' oracle only.  Besides the tableau, profile takes
    # from scipy.integrate only solve_ivp (the seam perfbench wraps).
    package = Path(magma_lab.__file__).parent
    tree = ast.parse((package / "profile.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    assert sorted(i for i in imported if i[0].startswith("scipy.integrate")) == [
        ("scipy.integrate", "solve_ivp"), ("scipy.integrate._ivp", "dop853_coefficients")]
    pattern = re.compile(r"\bOdeSolution\b|\bDop853DenseOutput\b|_ivp\.rk\b")
    assert [f.name for f in sorted(package.glob("*.py")) if pattern.search(f.read_text())] == []


def test_only_ode_residual_reads_a_scipy_spline():
    # profile._hermite reads stored samples between their radii; the one
    # SciPy spline left is ode_residual's, an independent check by design
    package = Path(magma_lab.__file__).parent
    tree = ast.parse((package / "profile.py").read_text())
    [residual] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "ode_residual"]

    def spline_imports(root):
        return [(getattr(node, "module", None) or alias.name, alias.name)
                for node in ast.walk(root) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
                if (getattr(node, "module", None) or alias.name).startswith("scipy.interpolate")]

    assert spline_imports(tree) == spline_imports(residual) == [
        ("scipy.interpolate", "make_interp_spline")]
    pattern = re.compile(r"\bPchipInterpolator\b|\bCubicSpline\b")
    assert [f.name for f in sorted(package.glob("*.py")) if pattern.search(f.read_text())] == []


_STEPPER_PROBE = """
import sys
import magma_lab.profile as prof

def state():
    scipy = any(m.split(".")[0] == "scipy" for m in sys.modules)
    return [scipy, hasattr(prof, "_make_stepper")]

print(state())
shot = prof._Shot(prof.ProfileParams(d=3.0, n=2.5, c=1.7, mu=-0.021), 200.0)
generated = [f.__code__.co_filename for f in (prof._make_stepper, shot.qrrr, shot.trial,
                                             shot.extend)]
print(state() + [generated == ["<string>"] * 4])
"""


def test_the_first_shot_generates_the_stepper():
    # importing the module generates nothing and loads no SciPy; the first
    # shot does both
    proc = subprocess.run([sys.executable, "-c", _STEPPER_PROBE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[False, False]", "[True, True, True]"]


def test_one_shot_method_builds_every_interpolant():
    # event roots and a sampling shot's kept steps extend a step through one
    # method, so the two cannot drift apart
    tree = ast.parse((Path(magma_lab.__file__).parent / "profile.py").read_text())
    [shot] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Shot"]
    methods = [node for node in shot.body if isinstance(node, ast.FunctionDef)]

    def reads(method, attr):  # method loads self.<attr>
        return any(isinstance(node, ast.Attribute) and node.attr == attr
                   and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) == "self"
                   for node in ast.walk(method))

    [builder] = [m.name for m in methods if reads(m, "extend")]
    assert builder == "dense"
    assert [m.name for m in methods if reads(m, builder)] == ["classify"]


def test_only_integrate_shot_makes_a_shot():
    # integrate_shot is the one seam of every shot: it alone widens an
    # unsettled shot, and a search cannot grow a shot loop of its own
    package = Path(magma_lab.__file__).parent
    makers = sorted(
        (path.name, getattr(top, "name", None))
        for path in package.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_Shot")
    assert makers == [("profile.py", "integrate_shot")]


def test_only_decay_check_makes_a_decay_fit():
    # decay_check is the one maker of a tail fit: an archive stores no k or M,
    # and its reader cannot take a fit that disagrees with its rows
    package = Path(magma_lab.__file__).parent
    makers = sorted(
        (path.name, getattr(top, "name", None))
        for path in package.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "DecayFit" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert makers == [("profile.py", "decay_check")]


def test_only_find_mu_c_and_the_archive_reader_call_decay_check():
    # a fresh profile carries find_mu_c's fit and an archive its reader's, so
    # no caller, script or test fixture fits a profile again, nor gets another
    # answer by skipping it
    root = Path(__file__).resolve().parents[1]
    files = [*Path(magma_lab.__file__).parent.glob("*.py"), *(root / "scripts").glob("*.py")]
    assert "transit_demo.py" in [f.name for f in files]
    callers = sorted(
        (path.name, getattr(top, "name", None))
        for path in files
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "decay_check")
    assert callers == [("profile.py", "find_mu_c"), ("profile.py", "read_profile_csv")]
    fixtures = [
        (path.name, top.name)
        for path in sorted((root / "tests").glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.FunctionDef)
        and any("fixture" in ast.unparse(dec) for dec in top.decorator_list)
        and any(isinstance(node, ast.Name) and node.id == "decay_check" for node in ast.walk(top))]
    assert fixtures == []
