"""The benchmark's workloads: one scenario each, run by ``fiberlink run``.

Each heavy layer does most of its work in one workload and little in
another, so a gain in one layer cannot hide a loss in another:

- ``fig1``: the shipped ``fig1`` preset, the paper's headline run.  240 s of
  full-rate simulation at a 0.1 ms step (2.4 M samples per record), a 2-day
  decimated model and a 300,001-row PSD CSV.  The full-rate servo, Welch
  and the PSD export dominate it.
- ``longterm_10d``: day-scale stability analysis.  A 10-day decimated model
  with random-walk FM switched on, so FFT noise synthesis,
  ``loop_suppression`` (FFT length 864,001 = 31 * 47 * 593) and long-record
  Allan deviation dominate, while Welch and the PSD export do little.  The
  full-rate part is cut to 30 s with a 5 s discard; a discard at or above
  the duration passes validation and then crashes the run.
- ``comb_3d``: a 3-day comb campaign at 1 s gates with the budget enabled.
  Exact comb arithmetic and the microhertz-decimal gate CSV dominate it; it
  has no servo, no FFT and no Welch.
"""

_DAY_SCALE_TAUS_S = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                     10000, 20000, 40000, 43200, 86400, 172800]

COMB_3D_GATES = 259200

WORKLOADS = {
    "fig1": {"preset": "fig1"},
    "longterm_10d": {
        "preset": "fig1",
        "link": {"noise": {"walk_fm_h": 1e-36}},
        "run": {"decimated_duration_s": 864000, "fullrate_duration_s": 30,
                "transient_discard_s": 5},
        "outputs": {"psd_segment_s": 10, "fullrate_taus_s": [1, 2, 4],
                    "adev_taus_s": _DAY_SCALE_TAUS_S},
    },
    "comb_3d": {
        "preset": "fig4",
        "comb": {"n_gates": COMB_3D_GATES},
        "budget": {"enabled": True},
    },
}


def scenario_for(workload, seed):
    """Scenario dict of ``workload`` carrying ``seed``."""
    return dict(WORKLOADS[workload], seed=seed)
