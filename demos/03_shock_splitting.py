"""Out-of-time and out-of-sample shock splits with Monte Carlo resampling.

The bundled fixture has a real temporal boundary; this walks through the
OOT split geometry, the per-run reshuffling of the pre-shock 80/20 cut, and
the median/range aggregation over runs. A split holds row indices into the
frame it was split from; `frame.take(rows)` gives a part's rows.
"""

from shockstab import SplitSpec, aggregate, make_shocked_fixture, monte_carlo, split_once

frame = make_shocked_fixture()
print(f"fixture: {frame.row_count} rows, columns {frame.column_names}")

# --- one OOT split ----------------------------------------------------------
spec = SplitSpec(
    mode="oot",
    date_column="date",
    shock_date="2018-03-22",
    train_fraction=0.8,
    mc_runs=51,
    seed=42,
)
split = split_once(frame, spec, run_index=0)
print(
    f"OOT split: train={split.train.size} test={split.test.size} "
    f"shocked_test={split.shocked_test.size}"
)
print("rows dated on/after 2018-03-22 form the shocked segment\n")

# --- Monte Carlo ------------------------------------------------------------
splits = monte_carlo(frame, spec)
print(f"{len(splits)} Monte Carlo runs")

def rates(rows):
    return list(frame.take(rows).column("rate").values)


print("shocked segment identical across runs:",
      rates(splits[0].shocked_test) == rates(splits[-1].shocked_test))
print("train shuffles differ between runs:  ",
      rates(splits[0].train[:5]) != rates(splits[1].train[:5]))

# same seed + run index -> byte-identical assignment
again = split_once(frame, spec, run_index=1)
print("deterministic re-split:", rates(again.train) == rates(splits[1].train))

# --- OOS pseudo-shock -------------------------------------------------------
oos = SplitSpec(mode="oos", shock_fraction=0.2, mc_runs=5, seed=9)
oos_splits = monte_carlo(frame, oos)
sizes = {(s.train.size, s.test.size, s.shocked_test.size) for s in oos_splits}
print(f"\nOOS: sizes constant across runs {sizes}, membership resampled per run")

# --- aggregation ------------------------------------------------------------
fake_aucs = [0.71, 0.74, 0.69, 0.73, 0.75, 0.70, 0.72]
med, lo, hi = aggregate(fake_aucs)
print(f"\naggregate({fake_aucs})")
print(f"  median={med:.3f} range=({lo:.3f}, {hi:.3f})")
