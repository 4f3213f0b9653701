"""Correctness checks on each operation's output.

Every check tests an invariant or a statistic, never a digest of the
output, so a deliberate change to the random stream leaves it valid.
Statistical checks use a z = 5 Wilson interval: a correct program
fails one with probability below 1e-6, whatever the stream.  Each
function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math

Z95 = 1.959963984540054  # upper 2.5% point of N(0, 1), as the CLI uses
Z_CHECK = 5.0
EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3}
HEDGE_HEADER = ["n_steps", "median_abs_error", "rms_error", "max_abs_error",
                "analytic_negative_count", "hedged_negative_fraction", "hedged_min_wealth"]
HEDGE_STEPS = [64, 128, 256, 512]
EXPORT_HEADER = "path,index_terminal,stock_terminal"


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    p_hat = successes / trials
    z_sq = z * z
    denom = 1.0 + z_sq / trials
    center = (p_hat + z_sq / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials
                                     + z_sq / (4.0 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


def _statistic(label: str, probability: float, target: float, n: int,
               reported_ci: list | None) -> list[str]:
    """Target inside the z=5 interval; reported 95% CI matches its count."""
    problems = []
    count = round(probability * n)
    low, high = wilson(count, n, Z_CHECK)
    if not low <= target <= high:
        problems.append(f"{label}: target {target!r} outside z=5 interval [{low}, {high}]")
    if reported_ci is not None:
        expected = wilson(count, n, Z95)
        if any(abs(a - b) > 1e-9 for a, b in zip(reported_ci, expected)):
            problems.append(f"{label}: 95% CI {reported_ci} != recomputed {list(expected)}")
    return problems


def _expected_verdict(prop: str, report: dict) -> str:
    """Verdict the CLI must reach from its own reported statistics."""
    ci = report["wilson_ci_95"]
    if prop == "two_sided":
        covered = ci[0] <= report["theoretical_target"] <= ci[1]
        return "pass" if covered else "fail"
    if report["bound"]["holds"]:
        return "inconclusive"
    guarantee = 1.0 - report["eps"]
    if ci[0] >= guarantee - 1.5 * (ci[1] - ci[0]):
        return "pass"
    return "fail" if ci[1] < guarantee else "inconclusive"


def check_verify(prop: str, exit_code, report: dict | None, n_paths: int, seed: int,
                 bound_holds: bool | None) -> list[str]:
    """One ``eihlab verify`` report on a market whose bound status is known."""
    if report is None:
        return [f"{prop}: no JSON report (exit {exit_code})"]
    problems = []
    if report.get("proposition") != prop:
        problems.append(f"{prop}: report is for {report.get('proposition')!r}")
    if report.get("n_paths") != n_paths or report.get("seed") != seed:
        problems.append(f"{prop}: n_paths/seed {report.get('n_paths')}/{report.get('seed')}")
    if report.get("dichotomy_violations") != 0:
        problems.append(f"{prop}: {report.get('dichotomy_violations')} dichotomy violations")
    bound = report.get("bound")
    if (bound is None) != (bound_holds is None) or (bound and bound["holds"] != bound_holds):
        problems.append(f"{prop}: bound {bound} (expected holds={bound_holds})")
    if problems:
        return problems
    if report["empirical_probability"] is not None:
        problems += _statistic(prop, report["empirical_probability"],
                               report["theoretical_target"], n_paths, report["wilson_ci_95"])
        verdict = _expected_verdict(prop, report)
    else:
        verdict = "inconclusive" if bound_holds else "no estimate"
    extras = report.get("extras", {})
    if prop == "index":
        problems += _statistic("index recover", extras["recover_probability"],
                               extras["recover_target"], n_paths,
                               [extras["recover_ci_low"], extras["recover_ci_high"]])
    if report.get("verdict") != verdict:
        problems.append(f"{prop}: verdict {report.get('verdict')!r}, expected {verdict!r}")
    if exit_code != EXIT_CODES.get(verdict):
        problems.append(f"{prop}: exit {exit_code} for verdict {verdict!r}")
    return problems


def check_hedge(exit_code, csv_text: str) -> list[str]:
    """Replication error falls strictly with the step count; the
    analytic (claim-value) track never goes negative."""
    if exit_code != 0:
        return [f"hedge: exit {exit_code}"]
    lines = csv_text.splitlines()
    if not lines or lines[0].split(",") != HEDGE_HEADER:
        return [f"hedge: header {lines[:1]}"]
    try:
        rows = [dict(zip(HEDGE_HEADER, map(float, line.split(",")))) for line in lines[1:]]
    except ValueError as exc:
        return [f"hedge: unparsable row ({exc})"]
    problems = []
    if [int(r["n_steps"]) for r in rows] != HEDGE_STEPS:
        problems.append(f"hedge: step counts {[r['n_steps'] for r in rows]}")
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        problems.append("hedge: non-finite value")
    medians = [r["median_abs_error"] for r in rows]
    if any(b >= a for a, b in zip(medians, medians[1:])):
        problems.append(f"hedge: median errors not strictly decreasing: {medians}")
    if any(r["analytic_negative_count"] != 0 for r in rows):
        problems.append("hedge: analytic wealth went negative")
    return problems


def check_export(exit_code, csv_path: str, n_paths: int, expected: dict[int, tuple]) -> list[str]:
    """Row count, header, and sample rows equal to ``expected`` bit for bit.

    ``expected`` maps a path index to the (index, stock) terminal pair
    the library's sampler returns for that path.
    """
    if exit_code != 0:
        return [f"export: exit {exit_code}"]
    problems = []
    rows = 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != EXPORT_HEADER:
            problems.append(f"export: header {header!r}")
        for k, line in enumerate(fh):
            rows += 1
            if k in expected:
                fields = line.rstrip("\n").split(",")
                want = (str(k), *expected[k])
                got = (fields[0], *map(float, fields[1:])) if len(fields) == 3 else fields
                if tuple(got) != want:
                    problems.append(f"export: row {k} is {line.strip()!r}, expected {want}")
    if rows != n_paths:
        problems.append(f"export: {rows} rows, expected {n_paths}")
    return problems


def check_scan_set(holds: list, prices: list, delta: float) -> list[str]:
    """Drift-bound implications and band-claim prices for one parameter set."""
    problems = []
    mu_bis, index, capm1, capm_final = holds
    if mu_bis and index and not capm1:
        problems.append("scan: mu_bis & index hold but capm1 fails")
    if index and capm1 and not capm_final:
        problems.append("scan: index & capm1 hold but capm_final fails")
    for price in prices:
        if not (math.isfinite(price) and 0.0 < price < 1.0):
            problems.append(f"scan: price {price!r} outside (0, 1)")
        elif abs(price - delta / 2.0) > 1e-9:
            problems.append(f"scan: price {price!r} is not delta/2 = {delta / 2.0!r}")
    return problems


def check_lemma_row(row: dict) -> list[str]:
    """Closed form and quadrature agree on one half-space triple.

    The closed form lies in [0, exp(|u|^2 / 2)]; it can round to 0.0
    when the half-space is far out in the tail, and reach the ceiling
    (up to rounding) when it covers almost the whole plane.
    """
    closed, gap = row["closed_form"], row["abs_gap"]
    ceiling = math.exp(0.5 * (row["u1"] ** 2 + row["u2"] ** 2)) * (1.0 + 1e-12)
    if not (0.0 <= closed <= ceiling and gap <= 1e-8):
        return [f"scan: lemma closed form {closed!r} (ceiling {ceiling!r}), gap {gap!r}"]
    return []
