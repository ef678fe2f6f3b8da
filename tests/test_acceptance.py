"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report
lines; every stated tolerance and budget is asserted here, nothing is
deferred to later calibration.
"""

import time

from conftest import (
    dist_upper_bound,
    distance_ladder,
    generate_random_small,
    radius1_instance,
    table1_instance,
    with_delta,
)
from wronoc import (
    GenSpec,
    SpacingProblem,
    cli,
    export_asp_facts,
    generate,
    apply_delta,
    oracle_max_parallelism,
    oracle_spacing,
    parse_instance,
    solve_max_parallelism,
    solve_spacing,
)
from wronoc.model import format_instance
from wronoc.verify import check_parallelism_solution, check_spacing_solution


def report(num: int, detail: str, failures=()):
    failures = list(failures)
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status} — {detail}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_table1_phase1_golden():
    inst = table1_instance()
    started = time.monotonic()
    sol = solve_max_parallelism(inst, 3)
    elapsed = time.monotonic() - started
    failures = []
    if sol.parallelism != 4:
        failures.append(f"P={sol.parallelism}, expected 4")
    if sol.status != "optimal":
        failures.append(f"status={sol.status}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    report(1, f"Table 1, delta=0, n_radii=3 -> P=4 in {elapsed * 1000:.1f} ms", failures)


def test_criterion_2_table1_phase1_derived_goldens():
    inst = table1_instance()
    failures = []
    for n_radii, expected in ((2, 5), (4, 4)):
        oracle = oracle_max_parallelism(inst, n_radii)
        if oracle.parallelism != expected:
            failures.append(f"oracle n_radii={n_radii}: {oracle.parallelism} != {expected}")
        sol = solve_max_parallelism(inst, n_radii)
        if sol != oracle:
            failures.append(f"solver diverges from oracle at n_radii={n_radii}")
    report(2, "Table 1 n_radii=2 -> P=5, n_radii=4 -> P=4 (oracle-fixed)", failures)


def test_criterion_3_phase1_oracle_equivalence():
    started = time.monotonic()
    failures = []
    compared = 0
    for seed in range(200):
        n_radii = 2 + seed % 5
        base = generate_random_small(seed, n_radii, max_resonances=10)
        for half_width in (0, 500, 1200):
            inst = with_delta(base, half_width)
            for n in range(1, n_radii + 1):
                sol = solve_max_parallelism(inst, n)
                oracle = oracle_max_parallelism(inst, n)
                compared += 1
                if sol != oracle:
                    failures.append(f"seed={seed} hw={half_width} n={n}")
                elif sol.status not in ("optimal", "infeasible"):
                    failures.append(f"seed={seed} hw={half_width} n={n}: {sol.status}")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"suite took {elapsed:.1f}s, budget 60s")
    report(
        3,
        f"branch-and-bound == oracle on {compared} solves over 200 instances "
        f"in {elapsed:.1f}s",
        failures,
    )


def test_criterion_4_table1_phase2_derived_goldens():
    sub = radius1_instance()
    failures = []
    golden = {2: (105000, [1496400, 1601400]), 3: (50700, [1496400, 1547100, 1601400])}
    for n_lambda, (want_dist, want_vals) in golden.items():
        problem = SpacingProblem(1, n_lambda, "base")
        oracle = oracle_spacing(sub, problem)
        sol = solve_spacing(sub, problem)
        vals = [sub.entry(1).nominals()[j] for j in sol.matrix[0]] if sol.matrix else []
        if oracle.dist_pm != want_dist:
            failures.append(f"oracle n_lambda={n_lambda}: {oracle.dist_pm} != {want_dist}")
        if sol != oracle:
            failures.append(f"solver diverges from oracle at n_lambda={n_lambda}")
        if vals != want_vals:
            failures.append(f"carriers {vals} != {want_vals}")
    report(4, "radius-1 sub-instance: dist*=105000 (n=2), 50700 with "
              "{1496.4, 1547.1, 1601.4} nm (n=3)", failures)


def test_criterion_5_phase2_oracle_equivalence():
    started = time.monotonic()
    shapes = [
        (3, 8, 1, 3),
        (4, 8, 2, 2),
        (5, 6, 3, 1),
        (4, 6, 2, 3),
        (5, 4, 4, 2),  # n_radii * n_lambda = 8
    ]
    failures = []
    compared = 0
    for mode in ("base", "refined"):
        for seed in range(100):
            inst_radii, max_res, n_radii, n_lambda = shapes[seed % len(shapes)]
            inst = generate_random_small(seed, inst_radii, max_res)
            problem = SpacingProblem(n_radii, n_lambda, mode)
            sol = solve_spacing(inst, problem)
            oracle = oracle_spacing(inst, problem)
            compared += 1
            if sol != oracle:
                failures.append(f"mode={mode} seed={seed}")
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        failures.append(f"suite took {elapsed:.1f}s, budget 120s")
    report(
        5,
        f"spacing solver == oracle on {compared} solves (100 instances per mode) "
        f"in {elapsed:.1f}s",
        failures,
    )


def test_criterion_6_property_suite(tmp_path, table1_file, capsys):
    failures = []

    # Delta-monotonicity of P.
    for seed in range(20):
        base = generate_random_small(seed, 4, 8)
        prev = None
        for half_width in (0, 500, 1200):
            inst = with_delta(base, half_width)
            sol = solve_max_parallelism(inst, 2)
            p = sol.parallelism if sol.status == "optimal" else 0
            if prev is not None and p > prev:
                failures.append(f"P grew with delta (seed={seed})")
            prev = p

    # Spacing monotonicity, mode dominance, ladder and bound membership,
    # checker validation, determinism -- across Table 1 and small instances.
    pool = [table1_instance()] + [generate_random_small(s, 4, 8) for s in range(8)]
    for inst in pool:
        for mode in ("base", "refined"):
            dist_by_lambda = {}
            for n_lambda in (1, 2, 3):
                problem = SpacingProblem(2, n_lambda, mode)
                sol = solve_spacing(inst, problem)
                again = solve_spacing(inst, problem)
                if sol != again:
                    failures.append(f"nondeterministic spacing ({inst.label})")
                if sol.status != "optimal":
                    continue
                dist_by_lambda[n_lambda] = sol.dist_pm
                if check_spacing_solution(inst, problem, sol):
                    failures.append(f"checker rejected spacing ({inst.label}, {mode})")
                if problem.n_radii * n_lambda >= 2:
                    ladder = distance_ladder(inst, set(sol.selected_radii))
                    if sol.dist_pm not in ladder:
                        failures.append(f"dist off ladder ({inst.label}, {mode})")
                    bound = dist_upper_bound(inst, set(sol.selected_radii), n_lambda)
                    if sol.dist_pm > bound:
                        failures.append(f"dist above bound ({inst.label}, {mode})")
            for lo, hi in ((1, 2), (2, 3)):
                if lo in dist_by_lambda and hi in dist_by_lambda:
                    if dist_by_lambda[hi] > dist_by_lambda[lo]:
                        failures.append(f"dist grew with n_lambda ({inst.label}, {mode})")
        prev = None
        for n_radii in (1, 2, 3):
            sol = solve_spacing(inst, SpacingProblem(n_radii, 2, "base"))
            if sol.status != "optimal":
                break
            if prev is not None and sol.dist_pm > prev:
                failures.append(f"dist grew with n_radii ({inst.label})")
            prev = sol.dist_pm
        base_sol = solve_spacing(inst, SpacingProblem(2, 2, "base"))
        refined_sol = solve_spacing(inst, SpacingProblem(2, 2, "refined"))
        if base_sol.status == "optimal" and refined_sol.status == "optimal":
            if refined_sol.dist_pm > base_sol.dist_pm:
                failures.append(f"refined beat base ({inst.label})")
        elif base_sol.status == "infeasible" and refined_sol.status == "optimal":
            if refined_sol.dist_pm != 0:
                failures.append(f"refined positive but base infeasible ({inst.label})")

    # Phase-1 determinism and checker validation.
    inst = table1_instance()
    for n in (1, 2, 3, 4):
        a = solve_max_parallelism(inst, n)
        b = solve_max_parallelism(inst, n)
        if a != b:
            failures.append(f"nondeterministic phase 1 (n={n})")
        if check_parallelism_solution(inst, a, n):
            failures.append(f"checker rejected phase 1 (n={n})")

    # Byte-identical CLI output across repeated runs (timing line aside).
    def run_bytes(argv, out_name):
        out = tmp_path / out_name
        assert cli.main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        return "\n".join(
            line for line in out.read_text(encoding="utf-8").splitlines()
            if '"wall_time_ms"' not in line
        )

    for argv, name in (
        (["max-parallelism", "--instance", table1_file, "--delta", "1000",
          "--n-radii", "3"], "p"),
        (["spacing", "--instance", table1_file, "--n-radii", "2",
          "--parallelism", "2", "--mode", "refined"], "s"),
    ):
        if run_bytes(argv, f"{name}1.json") != run_bytes(argv, f"{name}2.json"):
            failures.append(f"CLI output of {argv[0]} not byte-identical")

    report(6, "monotonicity, dominance, ladder/bound membership, checker, "
              "determinism, byte-identical reruns all hold", failures)


def test_criterion_7_asp_round_trip():
    failures = []
    cases = [table1_instance()]
    for seed in range(10):
        cases.append(
            apply_delta(
                generate_random_small(seed, 1 + seed % 6, 9), 250 * (seed % 4)
            )
        )
    for seed in range(10):
        cases.append(
            generate(
                GenSpec(r_max_pm=10_000_000, jitter_pm=100 * (seed % 3), seed=seed)
            )
        )
    for inst in cases:
        if parse_instance(export_asp_facts(inst)) != inst:
            failures.append(f"round trip broke for {inst.label!r}")
    report(7, f"export -> parse identity on Table 1 and {len(cases) - 1} "
              "generated instances", failures)


def test_criterion_8_desk_scale_bench(tmp_path, capsys):
    instance_path = tmp_path / "desk.txt"
    instance_path.write_text(format_instance(generate(GenSpec())), encoding="utf-8")
    csv_path = tmp_path / "bench.csv"
    code = cli.main(
        [
            "bench",
            "--instance", str(instance_path),
            "--n-radii", "2,4,8",
            "--delta", "0,1000",
            "--phases", "1",
            "--time-limit", "120",
            "--out", str(csv_path),
        ]
    )
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    failures = []
    if code != 0:
        failures.append(f"bench exited {code}")
    if len(lines) != 7:
        failures.append(f"{len(lines) - 1} rows, expected 6")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        print(
            f"[criterion 8]   n_radii={row[1]} delta={row[2]}pm: "
            f"status={row[4]} P={row[5]} in {row[6]} ms (soft target 120 s)"
        )
        if row[4] not in ("optimal", "incumbent-timeout"):
            failures.append(f"unexpected status {row[4]}")
    report(8, "desk-scale bench CSV produced; per-cell results reported above "
              "(timing soft, not gated)", failures)


def test_criterion_9_generator_shape():
    inst = generate(GenSpec())
    counts = [len(e.nominals()) for e in inst.radii]
    failures = []
    if len(inst.radii) != 101:
        failures.append(f"{len(inst.radii)} radii, expected 101")
    if not 1200 <= sum(counts) <= 2400:
        failures.append(f"total resonances {sum(counts)} outside [1200, 2400]")
    if min(counts) < 4 or max(counts) > 32:
        failures.append(f"per-radius counts {min(counts)}..{max(counts)} outside [4, 32]")
    if generate(GenSpec()) != inst:
        failures.append("not deterministic under a fixed seed")
    report(
        9,
        f"default sweep: 101 radii, {sum(counts)} resonances, per-radius "
        f"counts {min(counts)}..{max(counts)}",
        failures,
    )
