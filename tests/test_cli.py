import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planelift
from planelift.cli import _exact_zero, main


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_groups_show(capsys):
    code, out = _run(capsys, ["groups", "show", "A4", "--subgroup", "Z3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 12
    assert payload["cosets"]["index"] == 4
    assert len(payload["cosets"]["representatives"]) == 4


def test_groups_show_embeds_into_the_group_it_built(capsys, monkeypatch):
    from planelift import groups

    built, build = [], groups.build_group
    monkeypatch.setattr(groups, "build_group", lambda spec: built.append(spec) or build(spec))
    code, _ = _run(capsys, ["groups", "show", "A5", "--subgroup", "Z5"])
    assert code == 0 and built == ["A5", "Z5"]


def test_decompose_regular(capsys, tmp_path):
    csv_path = tmp_path / "chars.csv"
    code, out = _run(capsys, ["decompose", "--group", "A4", "--rep", "regular",
                              "--characters-csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"] == {"omega_minus": 1, "omega_plus": 1,
                                         "std3": 3, "triv": 1}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("irrep,")
    assert len(lines) == 5


CHARACTERS_CSV = {
    "A4": """irrep,e,(2,3,4),(2,4,3),(1,2)(3,4)
triv,1+0j,1+0j,1+0j,1+0j
omega_plus,1+0j,-0.5-0.866025403784j,-0.5+0.866025403784j,1+0j
omega_minus,1+0j,-0.5+0.866025403784j,-0.5-0.866025403784j,1+0j
std3,3+0j,0+0j,0+0j,-1+0j
""",
    "A5": """irrep,e,(3,4,5),(2,3)(4,5),(1,2,3,4,5),(1,2,3,5,4)
triv,1+0j,1+0j,1+0j,1+0j,1+0j
icosa3a,3+0j,0+0j,-1+0j,1.61803398875+0j,-0.61803398875+0j
icosa3b,3+0j,0+0j,-1+0j,-0.61803398875+0j,1.61803398875+0j
std4,4+0j,1+0j,0+0j,-1+0j,-1+0j
pair5,5+0j,-1+0j,1+0j,0+0j,0+0j
""",
}


@pytest.mark.parametrize("group", sorted(CHARACTERS_CSV))
def test_characters_csv_prints_exact_zeros(capsys, tmp_path, group):
    csv_path = tmp_path / "chars.csv"
    code, _ = _run(capsys, ["decompose", "--group", group,
                            "--characters-csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_text() == CHARACTERS_CSV[group]


def test_exact_zero_is_never_negative():
    cells = [f"{_exact_zero(x):+.12g}" for x in (-0.0, -1e-13, 1e-13, -1e-11)]
    assert cells == ["+0", "+0", "+0", "-1e-11"]


def test_branch_json_and_csv(capsys):
    code, out = _run(capsys, ["branch", "--group", "A4", "--subgroup", "Z3"])
    assert code == 0
    payload = json.loads(out)
    std_row = payload["entries"][payload["rows"].index("std3")]
    assert std_row == [1, 1, 1]
    code, out = _run(capsys, ["branch", "--group", "A4", "--subgroup", "Z3",
                              "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == ",chi0,chi1,chi2"


def test_induce_command(capsys):
    code, out = _run(capsys, ["induce", "--from", "Z3", "--to", "A4",
                              "--irrep", "chi1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"] == {"omega_plus": 1, "std3": 1}
    code, _ = _run(capsys, ["induce", "--from", "Z3", "--to", "A4",
                            "--irrep", "nope"])
    assert code == 2


def test_branch_builds_only_the_table_it_prints(capsys, monkeypatch):
    from planelift import induce_restrict

    def unused(cosets):
        raise AssertionError("branch built the induction table, which it does not print")

    monkeypatch.setattr(induce_restrict, "induction_table", unused)
    for fmt in ("json", "csv"):
        code, _ = _run(capsys, ["branch", "--group", "A5", "--subgroup", "Z5", "--format", fmt])
        assert code == 0


def test_induce_command_induces_only_the_named_irrep(capsys, monkeypatch):
    from planelift import induce_restrict

    real, calls = induce_restrict.induce, []

    def counted(rep, cosets):
        calls.append(rep.label)
        return real(rep, cosets)

    # the irrep tables induce their coset actions through reps, which stays unpatched
    monkeypatch.setattr(induce_restrict, "induce", counted)
    code, out = _run(capsys, ["induce", "--from", "Z5", "--to", "A5", "--irrep", "chi2",
                              "--format", "csv"])
    assert code == 0 and calls == ["chi2"]
    assert out.splitlines() == ["irrep,multiplicity", "icosa3b,1", "pair5,1", "std4,1"]


def test_frobenius_builds_each_irrep_table_once(capsys, monkeypatch):
    # the branching and induction tables each built both groups' irrep
    # tables: 4 calls (A5, Z5, Z5, A5)
    from planelift import induce_restrict

    real, built = induce_restrict.irrep_table, []
    monkeypatch.setattr(induce_restrict, "irrep_table",
                        lambda group: built.append(group.name) or real(group))
    code, out = _run(capsys, ["frobenius", "--group", "A5", "--subgroup", "Z5"])
    assert code == 0 and json.loads(out)["reciprocity"] == "PASS"
    assert sorted(built) == ["A5", "Z5"]


def test_frobenius_and_completeness_pass(capsys):
    code, out = _run(capsys, ["frobenius", "--group", "A4", "--subgroup", "Z3"])
    assert code == 0
    assert json.loads(out)["reciprocity"] == "PASS"
    code, out = _run(capsys, ["completeness", "--group", "A4", "--subgroup", "Z3"])
    assert code == 0
    assert json.loads(out)["completeness"] == "PASS"


def test_bad_group_name_is_usage_error(capsys):
    code = main(["branch", "--group", "A4", "--subgroup", "BadName"])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_kernel_basis_command(capsys, tmp_path):
    dump = tmp_path / "basis.csv"
    code, out = _run(capsys, ["kernel-basis", "--in", "0:1", "--out-lmax", "2",
                              "--radial", "2", "--dump", str(dump)])
    assert code == 0
    payload = json.loads(out)
    assert payload["per_ell_basis"] == {"0": 2, "1": 6, "2": 10}
    assert payload["per_ell_basis"] == payload["per_ell_analytic"]
    assert payload["weight_count"] == 18
    assert dump.read_text().startswith("ell,element,x,y,row,col,value")


@pytest.mark.parametrize("spec, part", [("0:1.5", "'0:1.5'"), ("x", "'x'"), (":2", "':2'")])
def test_kernel_basis_names_the_bad_part_of_in(capsys, spec, part):
    code = main(["kernel-basis", "--in", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--in part {part}" in captured.err


@pytest.mark.parametrize("r_max", ["nan", "inf"])
def test_kernel_basis_non_finite_r_max_is_usage_error(capsys, r_max):
    code = main(["kernel-basis", "--r-max", r_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "r_max" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["demo", "pose", "--grid-alpha", "0"], "grid counts"),
    (["equivariance", "--grid-n", "1"], "grid_n"),
    (["decompose", "--group", "A4", "--rep", "nope"], "available: triv"),
    (["equivariance", "--lmax", "-1"], "lmax"),
    (["demo", "pose", "--lmax", "-1"], "lmax"),
    (["kernel-basis", "--in", "0:0"], "count"),
    (["kernel-basis", "--in", "0:-1"], "count"),
    (["kernel-basis", "--channels", "-2"], "out_channels"),
    (["demo", "pose", "--angle", "nan"], "angle"),
    (["demo", "pose", "--lmax", "40"], "lmax"),
    (["equivariance", "--lmax", "1", "--tolerance", "nan"], "tolerance"),
    (["equivariance", "--lmax", "1", "--tolerance", "-1"], "tolerance"),
    (["demo", "pose", "--pattern", "nope"], "error: unknown pattern 'nope'"),
    (["induce", "--from", "Z3", "--to", "A4", "--irrep", "nope"], "error: unknown irrep 'nope'"),
])
def test_bad_numeric_or_label_input_is_usage_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_equivariance_command_passes(capsys):
    code, out = _run(capsys, ["equivariance", "--lmax", "2", "--trials", "2",
                              "--seed", "7", "--grid-n", "32"])
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_gradcheck_command(capsys):
    code, out = _run(capsys, ["gradcheck", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_tetra_demo(capsys):
    code, out = _run(capsys, ["tetra-demo"])
    assert code == 0
    assert out.count("PASS") == 3


def test_demo_pose_recovers_angle(capsys, tmp_path):
    dist = tmp_path / "dist.csv"
    code, out = _run(capsys, ["demo", "pose", "--pattern", "wedge",
                              "--angle", "45", "--lmax", "3", "--grid-n", "32",
                              "--grid-alpha", "8", "--grid-beta", "5",
                              "--dump-dist", str(dist)])
    assert code == 0
    payload = json.loads(out)
    estimated = float(payload["estimated_in_plane_deg"])
    assert abs(estimated - 45.0) <= 360.0 / 8
    assert dist.read_text().startswith("alpha,beta,gamma,prob")


def test_demo_pose_prints_canonical_pose(capsys):
    # the argmax lies at the pole beta = 0, where every cell with the same
    # alpha + gamma is one rotation; the printed triple has gamma = 0
    code, out = _run(capsys, ["demo", "pose", "--angle", "90", "--lmax", "3",
                              "--grid-n", "32", "--grid-alpha", "8", "--grid-beta", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["argmax"] == {"alpha_deg": "90.000", "beta_deg": "0.000",
                                 "gamma_deg": "0.000"}
    assert payload["estimated_in_plane_deg"] == "90.000"


@pytest.mark.parametrize("pattern, angle, estimate", [
    ("wedge", "40", "45.000"),
    ("blobs", "133", "135.000"),
    ("wedge", "271.5", "270.000"),
    ("wedge", "7.25", "0.000"),
    ("wedge", "90", "90.000"),
])
def test_demo_pose_default_readout_is_pinned(capsys, pattern, angle, estimate):
    # the readout's arithmetic may change its last digits, never the pose the demo prints
    code, out = _run(capsys, ["demo", "pose", "--pattern", pattern, "--angle", angle])
    assert code == 0
    payload = json.loads(out)
    assert payload["argmax"] == {"alpha_deg": estimate, "beta_deg": "0.000",
                                 "gamma_deg": "0.000"}
    assert payload["estimated_in_plane_deg"] == estimate


@pytest.mark.parametrize("argv", [
    ["demo", "pose", "--lmax", "1", "--grid-n", "16", "--grid-alpha", "4",
     "--grid-beta", "3", "--dump-dist"],
    ["kernel-basis", "--out-lmax", "1", "--radial", "1", "--dump"],
    ["decompose", "--group", "A4", "--characters-csv"],
], ids=["dump-dist", "dump", "characters-csv"])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        f"error: cannot write {path}: No such file or directory"]


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PLANELIFT_OUTDIR", str(tmp_path))
    code, _ = _run(capsys, ["kernel-basis", "--in", "0:1", "--out-lmax", "1",
                            "--radial", "1", "--dump", "basis.csv"])
    assert code == 0
    assert (tmp_path / "basis.csv").exists()


def test_byte_identical_reruns(capsys):
    argv = ["kernel-basis", "--in", "0:1,1:1", "--out-lmax", "2", "--radial", "2"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    argv = ["equivariance", "--lmax", "1", "--trials", "2", "--seed", "9",
            "--grid-n", "24"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def _fresh_process_modules(script):
    """Run ``script`` in a new interpreter on this checkout's ``src``; it prints a
    JSON list of loaded modules, returned parsed."""
    src = str(Path(planelift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
    return json.loads(out.stdout)


def test_demo_pose_imports_no_scipy():
    # cold start pays for numpy alone: the package resolves its exports
    # lazily and the CLI imports the finite-group modules inside the
    # commands that use them
    loaded = _fresh_process_modules(
        "import contextlib, io, json, sys\n"
        "import planelift.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert planelift.cli.main(['demo', 'pose']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('scipy', 'planelift'))))\n")
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    assert "planelift.layers" in loaded
    for name in ("groups", "reps", "induce_restrict", "tetra"):
        assert f"planelift.{name}" not in loaded


def test_runtime_runs_with_scipy_blocked():
    # scipy is a test oracle only: with every scipy import made to fail, the
    # Bessel test fields, both harnesses and sampled-field rotation still run
    loaded = _fresh_process_modules(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from planelift import layers\n"
        "config = layers.LayerConfig(lmax=2, grid_n=24)\n"
        "assert layers.equivariance_harness(config, trials=2).passed\n"
        "assert layers.gradient_check(config) < 1e-6\n"
        "field = layers.AnalyticField.random_band_limited(config.fiber, np.random.default_rng(0))\n"
        "layers.rotate_field(field.sample(16, 0.1), 0.3)\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items()\n"
        "                        if mod is not None and m.split('.')[0] == 'scipy')))\n")
    assert loaded == []


def test_package_exports_resolve_lazily():
    namespace = {}
    exec("from planelift import *", namespace)
    assert planelift.__all__ and len(set(planelift.__all__)) == len(planelift.__all__)
    for name in planelift.__all__:
        value = getattr(planelift, name)
        assert namespace[name] is value
        assert getattr(value, "__module__", "").startswith("planelift.")
    assert "induction_forward_many" in planelift.__all__
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        planelift.not_an_export
