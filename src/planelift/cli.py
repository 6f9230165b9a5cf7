"""Command-line entry point.

Every subcommand emits JSON with sorted keys (or CSV where offered) so that
repeated runs with the same arguments and seed are byte-identical. Exit
codes: 0 on success or PASS, 1 on a failed check, 2 on usage errors. The
finite-group modules are imported inside the commands that use them, so
``demo pose`` loads only ``so2_so3``, ``kernels`` and ``layers``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .kernels import RadialProfileSet, SO2RepSpec, analytic_basis_count, build_induction_kernel
from .layers import (
    AnalyticField,
    LayerConfig,
    equivariance_harness,
    gradient_check,
    induction_forward_many,
    rotate_field,
    so3_equiangular_grid,
    sphere_to_so3_correlation,
)
from .so2_so3 import Rotation3

_USAGE_ERROR = 2


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _out_path(path: str) -> str:
    base = os.environ.get("PLANELIFT_OUTDIR", "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _deg(rad: float) -> str:
    """An angle in degrees on [0, 360), to three decimals."""
    return f"{round(float(np.rad2deg(rad)), 3) % 360.0:.3f}"


def _exact_zero(x: float) -> float:
    return 0.0 if abs(x) < 1e-12 else x  # rounding noise and -0.0 print as 0


def _parse_rep_spec(text: str) -> SO2RepSpec:
    freqs: list[int] = []
    for part in text.split(","):
        k, _, count = part.partition(":")
        try:
            k, n = int(k), int(count or "1")
        except ValueError:
            raise ValueError(f"--in part {part!r} is not an integer FREQ or FREQ:COUNT") from None
        if n < 1:
            raise ValueError(f"count in {part!r} must be at least 1")
        freqs.extend([k] * n)
    return SO2RepSpec(tuple(freqs))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_groups(args) -> int:
    from .groups import build_group, coset_decomposition, named_embedding

    group = build_group(args.name)
    payload = {
        "name": group.name,
        "order": group.order,
        "conjugacy_classes": [[group.labels[g] for g in cls]
                              for cls in group.conjugacy_classes],
    }
    if args.subgroup:
        emb = named_embedding(args.subgroup, group)
        cos = coset_decomposition(emb)
        payload["cosets"] = {
            "index": emb.index,
            "representatives": [group.labels[r] for r in cos.reps],
            "perm": cos.perm.tolist(),
            "factor": cos.factor.tolist(),
        }
    _emit(payload)
    return 0


def _cmd_decompose(args) -> int:
    from .groups import build_group
    from .reps import decompose, irrep_table, regular_representation, trivial_representation

    group = build_group(args.group)
    table = irrep_table(group)
    if args.rep == "regular":
        rep = regular_representation(group)
    elif args.rep == "trivial":
        rep = trivial_representation(group)
    else:
        rep = table.by_label(args.rep)
    dec = decompose(rep, table)
    if args.characters_csv:
        path = _out_path(args.characters_csv)
        with open(path, "w") as fh:
            classes = [group.labels[c[0]] for c in group.conjugacy_classes]
            fh.write("irrep," + ",".join(classes) + "\n")
            for irr, row in zip(table.irreps, table.characters):
                cells = ",".join(f"{_exact_zero(v.real):.12g}{_exact_zero(v.imag):+.12g}j"
                                 for v in row)
                fh.write(f"{irr.label},{cells}\n")
    _emit({"group": group.name, "rep": args.rep,
           "multiplicities": dict(sorted(dec.multiplicities.items()))})
    return 0


def _cmd_branch(args) -> int:
    from .groups import named_embedding
    from .induce_restrict import branching_table

    branching = branching_table(named_embedding(args.subgroup, args.group))
    if args.format == "csv":
        print("," + ",".join(branching.cols))
        for r, row in zip(branching.rows, branching.entries):
            print(r + "," + ",".join(str(int(v)) for v in row))
    else:
        _emit({"group": args.group, "subgroup": args.subgroup,
               "rows": list(branching.rows), "cols": list(branching.cols),
               "entries": branching.entries.tolist()})
    return 0


def _cmd_induce(args) -> int:
    from .groups import coset_decomposition, named_embedding
    from .induce_restrict import induce
    from .reps import decompose, irrep_table

    emb = named_embedding(getattr(args, "from"), args.to)
    rho = irrep_table(emb.sub).by_label(args.irrep)
    mults = decompose(induce(rho, coset_decomposition(emb)),
                      irrep_table(emb.parent)).multiplicities
    if args.format == "csv":
        print("irrep,multiplicity")
        for c in sorted(mults):
            print(f"{c},{mults[c]}")
    else:
        _emit({"from": getattr(args, "from"), "to": args.to, "irrep": args.irrep,
               "index": emb.index, "multiplicities": dict(sorted(mults.items()))})
    return 0


def _cmd_frobenius(args) -> int:
    from .groups import coset_decomposition, named_embedding
    from .induce_restrict import _reciprocity_tables, check_frobenius

    emb = named_embedding(args.subgroup, args.group)
    ok, mismatch = check_frobenius(*_reciprocity_tables(coset_decomposition(emb)))
    _emit({"group": args.group, "subgroup": args.subgroup,
           "reciprocity": "PASS" if ok else "FAIL",
           "mismatch": list(mismatch) if mismatch else None})
    return 0 if ok else 1


def _cmd_completeness(args) -> int:
    from .groups import named_embedding
    from .induce_restrict import completeness_check

    ok = completeness_check(named_embedding(args.subgroup, args.group))
    _emit({"group": args.group, "subgroup": args.subgroup,
           "completeness": "PASS" if ok else "FAIL"})
    return 0 if ok else 1


def _cmd_kernel_basis(args) -> int:
    fiber = _parse_rep_spec(args.in_rep)
    radial = RadialProfileSet(args.radial, args.r_max)
    kernel = build_induction_kernel(fiber, args.channels, args.out_lmax, radial)
    per_ell = {str(ell): b.count for ell, b in enumerate(kernel.bases)}
    analytic = {str(ell): args.radial * analytic_basis_count(b.in_rep, b.out_rep, b.m_max)
                for ell, b in enumerate(kernel.bases)}
    if args.dump:
        path = _out_path(args.dump)
        axis = np.linspace(-args.r_max, args.r_max, 17)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        with open(path, "w") as fh:
            fh.write("ell,element,x,y,row,col,value\n")
            for ell, basis in enumerate(kernel.bases):
                for (b, n, i, j), value in np.ndenumerate(basis.evaluate_all(pts)):
                    x, y = pts[n]
                    fh.write(f"{ell},{b},{x:.6f},{y:.6f},{i},{j},{value:.12g}\n")
    _emit({"fiber": args.in_rep, "lmax": args.out_lmax, "radial": args.radial,
           "per_ell_basis": per_ell, "per_ell_analytic": analytic,
           "weight_count": kernel.weight_count})
    return 0


def _cmd_equivariance(args) -> int:
    config = LayerConfig(lmax=args.lmax, grid_n=args.grid_n)
    report = equivariance_harness(config, trials=args.trials, seed=args.seed,
                                  tolerance=args.tolerance)
    payload = report.as_dict()
    payload["residuals"] = [f"{r:.6e}" for r in payload["residuals"]]
    payload["max_residual"] = f"{report.max_residual:.6e}"
    payload["status"] = "PASS" if report.passed else "FAIL"
    _emit(payload)
    return 0 if report.passed else 1


def _cmd_gradcheck(args) -> int:
    config = LayerConfig(lmax=2, grid_n=24)
    err_linear = gradient_check(config, nonlinearity=None, seed=args.seed)
    err_softplus = gradient_check(config, nonlinearity="softplus", seed=args.seed)
    ok = err_linear < 1e-8 and err_softplus < 1e-6
    _emit({"linear_error": f"{err_linear:.6e}",
           "softplus_error": f"{err_softplus:.6e}",
           "status": "PASS" if ok else "FAIL"})
    return 0 if ok else 1


def _cmd_tetra_demo(args) -> int:
    from . import tetra

    cos = tetra.fixture_cosets()
    a4 = cos.embedding.parent
    z3 = cos.embedding.sub
    print("stacking rule per element (block i <- filter, subgroup element):")
    for g in range(a4.order):
        blocks = ", ".join(
            f"f{cos.perm[g, i] + 1}[{z3.labels[cos.factor[g, i]]}]" for i in range(4))
        print(f"  {a4.labels[g]:>12}: [{blocks}]")
    rng = np.random.default_rng(0)
    ok = True
    for label in ("chi0", "chi1", "chi2"):
        coeffs = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        fn = tetra.tetra_induce(tetra.bank_from_irrep(label, coeffs, cos), cos)
        good = tetra.verify_tetra_action(fn, label)
        print(f"action check {label}: {'PASS' if good else 'FAIL'}")
        ok = ok and good
    return 0 if ok else 1


_PATTERNS = {
    "wedge": lambda pts: (np.exp(-((np.hypot(pts[:, 0], pts[:, 1]) - 0.3) / 0.12) ** 2)
                          * (1.0 + np.cos(np.arctan2(pts[:, 1], pts[:, 0]))))[:, None],
    "blobs": lambda pts: (np.exp(-np.sum((pts - [0.25, 0.0]) ** 2, 1) / 0.02)
                          - 0.5 * np.exp(-np.sum((pts - [0.0, 0.3]) ** 2, 1) / 0.04))[:, None],
}


def _cmd_demo_pose(args) -> int:
    if args.pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {args.pattern!r}; "
                         f"available: {', '.join(sorted(_PATTERNS))}")
    grid = so3_equiangular_grid(args.grid_alpha, args.grid_beta, args.grid_alpha)
    config = LayerConfig(lmax=args.lmax, grid_n=args.grid_n)
    kernel = config.build_kernel()
    rng = np.random.default_rng(args.seed)
    weights = rng.normal(size=(kernel.out_channels, kernel.weight_count))
    pattern = AnalyticField(_PATTERNS[args.pattern], config.fiber)
    theta = np.deg2rad(args.angle)

    reference, observed = induction_forward_many(
        [f.sample(config.grid_n, config.spacing) for f in (pattern, rotate_field(pattern, theta))],
        kernel, weights)
    corr = sphere_to_so3_correlation(observed, reference)
    values = corr.evaluate(grid)
    probs = np.exp(values - values.max())
    probs /= probs.sum()
    best = grid[int(np.argmax(values))]
    if args.dump_dist:
        with open(_out_path(args.dump_dist), "w") as fh:
            fh.write("alpha,beta,gamma,prob\n")
            axes = [[f"{x:.8f}" for x in axis] for axis in (grid.alphas, grid.betas, grid.gammas)]
            for (a, b, g), p in zip(itertools.product(*axes), probs):
                fh.write(f"{a},{b},{g},{p:.10e}\n")
    # At a pole every cell with the same alpha +/- gamma is one rotation, and
    # rounding picks which of them wins; the canonical triple has gamma = 0.
    pose = Rotation3.from_matrix(best.matrix())
    _emit({
        "pattern": args.pattern,
        "true_angle_deg": args.angle,
        "argmax": {"alpha_deg": _deg(pose.alpha),
                   "beta_deg": f"{np.rad2deg(pose.beta):.3f}",
                   "gamma_deg": _deg(pose.gamma)},
        "estimated_in_plane_deg": _deg(pose.alpha),
        "grid_cells": len(grid),
    })
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planelift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("groups", help="inspect a named finite group")
    gsub = p.add_subparsers(dest="groups_command", required=True)
    show = gsub.add_parser("show")
    show.add_argument("name")
    show.add_argument("--subgroup", default=None)
    show.set_defaults(func=_cmd_groups)

    p = sub.add_parser("decompose", help="decompose a representation into irreps")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="regular")
    p.add_argument("--characters-csv", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("branch", help="branching table of a subgroup pair")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("induce", help="decompose one induced irrep")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--irrep", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("frobenius", help="cross-check branching against induction")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("completeness", help="induced regular representation check")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.set_defaults(func=_cmd_completeness)

    p = sub.add_parser("kernel-basis", help="solve and size the lifting kernel basis")
    p.add_argument("--in", dest="in_rep", default="0:1")
    p.add_argument("--out-lmax", type=int, default=6)
    p.add_argument("--radial", type=int, default=3)
    p.add_argument("--r-max", type=float, default=0.45,
                   help="outer ring center; the rings have width r_max/radial, so this is "
                        "not the layers' R_MAX/RADIAL_WIDTH ring (default: %(default)s)")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--dump", default=None)
    p.set_defaults(func=_cmd_kernel_basis)

    p = sub.add_parser("equivariance", help="run the layer equivariance harness")
    p.add_argument("--lmax", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--grid-n", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=_cmd_equivariance)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("tetra-demo", help="triangle-to-tetrahedron lifting demo")
    p.set_defaults(func=_cmd_tetra_demo)

    p = sub.add_parser("demo", help="end-to-end demos")
    dsub = p.add_subparsers(dest="demo_command", required=True)
    pose = dsub.add_parser("pose")
    pose.add_argument("--pattern", default="wedge")
    pose.add_argument("--angle", type=float, default=40.0)
    pose.add_argument("--lmax", type=int, default=6)
    pose.add_argument("--grid-n", type=int, default=48)
    pose.add_argument("--grid-alpha", type=int, default=24)
    pose.add_argument("--grid-beta", type=int, default=12)
    pose.add_argument("--seed", type=int, default=11)
    pose.add_argument("--dump-dist", default=None)
    pose.set_defaults(func=_cmd_demo_pose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
