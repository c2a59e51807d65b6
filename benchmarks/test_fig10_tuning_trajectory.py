"""Fig. 10: online-tuning iterations vs number of applications.

The paper's plot: per maintenance cycle, the iteration count stays low
for a long stretch and then rises suddenly — the crossbar is failing.
The knee moves right for ST+T and further right (or equal) for ST+AT.
"""

from repro.analysis import ascii_series, iteration_knee, render_table

SCENARIOS = ("t+t", "st+t", "st+at")


def compute(lab):
    return lab.framework.compare(SCENARIOS, journal=lab.journal).results


def test_fig10_tuning_trajectory(benchmark, lenet_lab, report):
    results = benchmark.pedantic(lambda: compute(lenet_lab), rounds=1, iterations=1)
    parts = []
    knees = {}
    for key in SCENARIOS:
        trace = results[key].iteration_trace()
        knees[key] = iteration_knee(trace)
        parts.append(
            ascii_series(
                [float(v) for v in trace],
                height=8,
                label=f"{key.upper()} — tuning iterations per window "
                f"(knee at window {knees[key]}/{len(trace)})",
            )
        )
        parts.append("")
    parts.append(
        render_table(
            ["scenario", "windows survived", "knee window", "final iterations"],
            [
                [
                    k.upper(),
                    results[k].windows_survived,
                    knees[k],
                    results[k].iteration_trace()[-1],
                ]
                for k in SCENARIOS
            ],
        )
    )
    report("fig10_tuning_trajectory", "\n".join(parts))

    # Shape: every scenario ends in a budget-exhausting spike...
    for key in SCENARIOS:
        trace = results[key].iteration_trace()
        assert trace[-1] == max(trace), "failure window has the iteration spike"
    # ...and the knee moves right with the paper's techniques.
    assert knees["st+t"] > knees["t+t"]
    assert knees["st+at"] >= knees["st+t"] * 0.9
