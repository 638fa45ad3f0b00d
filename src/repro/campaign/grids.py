"""Decompose the paper's figure sweeps into campaign job specs.

Each figure experiment is a grid of independent ``run_trials`` points;
these adapters enumerate exactly the specs those experiments execute —
same protocols, same per-point seeds (via
:func:`~repro.experiments.common.point_seed`), same engine — so a
campaign that has run the grid leaves the store's trial cache warm and
a subsequent ``repro-experiments fig3`` recomputes nothing.

The grid definitions deliberately import each experiment module's
``QUICK_PARAMS`` and mirror its loop structure; a divergence between a
grid and its experiment is a bug (covered by
``tests/campaign/test_grids.py``, which cross-checks the seeds).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.errors import CampaignError
from ..experiments.common import DEFAULT_SEED, point_seed
from ..experiments.fig3_vary_n import QUICK_PARAMS as FIG3_QUICK
from ..experiments.fig4_grouping import QUICK_PARAMS as FIG4_QUICK
from ..experiments.fig5_scaling_n import QUICK_PARAMS as FIG5_QUICK
from ..experiments.fig6_scaling_k import QUICK_PARAMS as FIG6_QUICK
from ..experiments.scaling_law import QUICK_PARAMS as SCALING_QUICK
from ..experiments.scaling_law import grid_points
from .spec import JobSpec

__all__ = ["GRID_EXPERIMENTS", "experiment_specs"]

#: Experiments decomposable into independent per-point jobs.
GRID_EXPERIMENTS = ("fig3", "fig4", "fig5", "fig6", "scaling")


def _fig3_specs(
    *,
    ks: Sequence[int] = (4, 6, 8),
    n_values: Sequence[int] | None = None,
    n_max: int = 120,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    specs = []
    for k in ks:
        ns = n_values if n_values is not None else range(k + 2, n_max + 1)
        for n in ns:
            if n < 3:
                continue
            specs.append(
                JobSpec(
                    protocol="uniform-k-partition",
                    params={"k": k},
                    n=n,
                    trials=trials,
                    engine=engine,
                    seed=point_seed(seed, "fig3", k, n),
                )
            )
    return specs


def _fig4_specs(
    *,
    ks: Sequence[int] = (4, 6, 8),
    n_values: Sequence[int] | None = None,
    n_max: int = 60,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    specs = []
    for k in ks:
        ns = n_values if n_values is not None else range(k + 2, n_max + 1)
        for n in ns:
            if n < 3:
                continue
            specs.append(
                JobSpec(
                    protocol="uniform-k-partition",
                    params={"k": k},
                    n=n,
                    trials=trials,
                    engine=engine,
                    seed=point_seed(seed, "fig4", k, n),
                    track_state=f"g{k}",
                )
            )
    return specs


def _fig5_specs(
    *,
    ks: Sequence[int] = (3, 4, 5, 6),
    n_units: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    base_n: int = 120,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    specs = []
    for k in ks:
        for unit in n_units:
            n = base_n * unit
            specs.append(
                JobSpec(
                    protocol="uniform-k-partition",
                    params={"k": k},
                    n=n,
                    trials=trials,
                    engine=engine,
                    seed=point_seed(seed, "fig5", k, n),
                )
            )
    return specs


def _fig6_specs(
    *,
    n: int = 960,
    ks: Sequence[int] = (3, 4, 5, 6, 8, 10),
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    return [
        JobSpec(
            protocol="uniform-k-partition",
            params={"k": k},
            n=n,
            trials=trials,
            engine=engine,
            seed=point_seed(seed, "fig6", k, n),
        )
        for k in ks
    ]


def _scaling_specs(
    *,
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    n_values: Sequence[int] = (1_000, 2_000, 5_000, 10_000, 20_000, 50_000),
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
    bootstrap: int | None = None,  # analysis-only knob; no effect on specs
) -> list[JobSpec]:
    """The scaling-law sweep as independent jobs (one per (k, n)).

    Reuses the experiment's own :func:`grid_points` snapping, so a
    campaign drain warms exactly the trial-cache keys
    ``repro-experiments scaling-law`` will ask for.  For the full
    10^5–10^6 study pass ``--workers N`` and a ``--columnar`` sink to
    the runner; the default ``count`` engine runs on the compiled
    kernel.
    """
    return [
        JobSpec(
            protocol="uniform-k-partition",
            params={"k": k},
            n=n,
            trials=trials,
            engine=engine,
            seed=point_seed(seed, "scaling-law", k, n),
        )
        for k, n in grid_points(ks, n_values)
    ]


_BUILDERS = {
    "fig3": (_fig3_specs, FIG3_QUICK),
    "fig4": (_fig4_specs, FIG4_QUICK),
    "fig5": (_fig5_specs, FIG5_QUICK),
    "fig6": (_fig6_specs, FIG6_QUICK),
    "scaling": (_scaling_specs, SCALING_QUICK),
}


def experiment_specs(
    name: str,
    *,
    quick: bool = False,
    trials: int | None = None,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    """Job specs for one figure grid (or ``"all"`` for every grid).

    ``quick=True`` uses the experiment's own ``QUICK_PARAMS`` grid;
    ``trials`` overrides the per-point trial count either way.
    """
    if name == "all":
        out: list[JobSpec] = []
        for grid in GRID_EXPERIMENTS:
            out.extend(
                experiment_specs(
                    grid, quick=quick, trials=trials, seed=seed, engine=engine
                )
            )
        return out
    try:
        builder, quick_params = _BUILDERS[name]
    except KeyError:
        raise CampaignError(
            f"no campaign grid for {name!r}; decomposable experiments: "
            f"{', '.join(GRID_EXPERIMENTS)} (or 'all')"
        ) from None
    kwargs: dict = dict(quick_params) if quick else {}
    if trials is not None:
        kwargs["trials"] = trials
    return builder(seed=seed, engine=engine, **kwargs)
