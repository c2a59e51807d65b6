"""Table I (lifetime columns): lifetime of T+T vs ST+T vs ST+AT.

The paper's headline: relative to traditional training + tuning (T+T),
skewed training (ST+T) extends lifetime 6x/7x and adding aging-aware
mapping (ST+AT) reaches 8x/11x (LeNet/Cifar10 and VGG/Cifar100).

Absolute application counts here are compressed (see DESIGN.md §2) and
single-run lifetimes are heavy-tailed, so the LeNet-role comparison
takes the median of three independent hardware instantiations per
scenario; the (much slower) VGG-role comparison runs one instantiation.
The assertions pin the *shape*: ST+T beats T+T by a clear multiple and
ST+AT does not fall below ST+T.
"""

from repro.analysis import render_table

SCENARIOS = ("t+t", "st+t", "st+at")


def _render(workload, results, spreads=None):
    base = results["t+t"].lifetime_applications
    rows = []
    for key in SCENARIOS:
        r = results[key]
        ratio = r.lifetime_applications / base if base else float("inf")
        rows.append(
            [
                key.upper(),
                r.lifetime_applications,
                spreads[key] if spreads else "-",
                len(r.windows),
                "yes" if r.failed else "no (horizon)",
                f"{ratio:.1f}x",
            ]
        )
    return render_table(
        ["scenario", "lifetime (apps, median)", "repeat spread", "windows", "failed", "vs T+T"],
        rows,
        title=f"Table I (lifetime) — {workload}",
    )


def test_table1_lifetime_lenet(benchmark, lenet_lab, report):
    repeats = 3

    fw, journal = lenet_lab.framework, lenet_lab.journal

    def run():
        medians = fw.compare(SCENARIOS, repeats=repeats, journal=journal).results
        spreads = {}
        for k in SCENARIOS:
            lives = [
                r.lifetime_applications
                for r in fw.run_scenario_repeats(k, repeats, journal=journal)
            ]
            spreads[k] = f"{min(lives)}-{max(lives)}"
        return medians, spreads

    medians, spreads = benchmark.pedantic(run, rounds=1, iterations=1)
    report("table1_lifetime_lenet", _render(lenet_lab.dataset.name, medians, spreads))
    tt = medians["t+t"].lifetime_applications
    stt = medians["st+t"].lifetime_applications
    stat = medians["st+at"].lifetime_applications
    assert stt > 1.3 * tt, "skewed training must extend the median lifetime"
    assert stat >= 0.9 * stt, "aging-aware mapping must not reduce the ST lifetime"


def test_table1_lifetime_vgg(benchmark, vgg_lab, report):
    def run():
        return vgg_lab.framework.compare(SCENARIOS, journal=vgg_lab.journal).results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report("table1_lifetime_vgg", _render(vgg_lab.dataset.name, results))
    tt = results["t+t"].lifetime_applications
    stt = results["st+t"].lifetime_applications
    stat = results["st+at"].lifetime_applications
    assert stt >= 1.2 * tt
    # Single-instantiation lifetimes are heavy-tailed; the hard claim
    # on the VGG role is that the full framework clearly beats the
    # baseline, and ST+AT stays in ST+T's league (the LeNet-role bench
    # holds the tighter median-of-3 ordering).
    assert stat >= 1.5 * tt
    assert stat >= 0.7 * stt
