"""The autotuner: model-pruned, simulator-measured plan search.

``autotune()`` picks the fastest execution plan for one conv shape:

1. every LDM/register-feasible candidate is enumerated
   (:func:`~repro.tune.space.enumerate_candidates`);
2. each is scored with the closed-form three-level roofline model
   (:func:`score_candidate` — no schedule is compiled, so thousands of
   points cost milliseconds);
3. the best ``top_k`` by model score — plus the heuristic planner's choice,
   so the tuner can never do worse than the status quo — are *measured* by
   walking their timed schedules on the simulator, fanned out over
   processes with :func:`~repro.common.parallel.parallel_map`;
4. the measured winner is persisted in the :class:`~repro.tune.cache.PlanCache`
   so later processes skip straight to step 0: a cache hit returns the
   stored plan with zero candidates measured.

The model is a *pruning oracle*, not the judge: ranking errors only cost a
candidate its slot in the measured set, never a wrong winner among the
measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import LDMOverflowError, PlanError
from repro.common.parallel import parallel_map
from repro.core.algorithms import engine_for_plan, resolve_algorithms
from repro.core.conv import ConvolutionEngine, effective_mesh_size
from repro.core.ldm_blocking import ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan
from repro.core.layout import batch_plan_block_bytes, image_plan_block_bytes
from repro.core.register_blocking import RegisterBlocking
from repro.core.serialize import params_from_dict, params_to_dict, plan_from_dict, plan_to_dict
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.model import PerformanceEstimate, PerformanceModel
from repro.telemetry import current_telemetry
from repro.tune.cache import PlanCache
from repro.tune.space import Candidate, enumerate_candidates


@dataclass
class TunedPlan:
    """Result of one autotune call."""

    plan: ConvPlan
    candidate: Candidate
    gflops: float  # measured (simulated) per-CG Gflop/s of the winner
    seconds: float  # measured layer time of the winner
    source: str  # "cache" | "tuned"
    candidates: int  # feasible points enumerated
    measured: int  # points actually timed on the simulator (0 on a hit)
    cache_path: Optional[Path] = None


def score_candidate(
    candidate: Candidate,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> PerformanceEstimate:
    """Closed-form three-level estimate of a candidate (the pruning oracle).

    Direct candidates are priced by :class:`~repro.perf.model.PerformanceModel`
    without building a plan or compiling a schedule: the family's Eq. 1/2
    variant (promotion-aware), a single-stream Table II read at the
    family's leading-dimension block size, and the kernel EE at the
    candidate's register shape and ``bNi``.

    Lowered candidates (im2col, Winograd) are scored by their plan's own
    GEMM-roofline estimate — building a lowered plan is O(1), no schedule
    is compiled, and the estimate's flop budget is direct-equivalent, so
    the scores rank across algorithm families.
    """
    if candidate.algorithm != "direct":
        return candidate.build(params, spec).estimate()
    p = params
    blk = candidate.blocking
    rb = candidate.register_blocking
    model = PerformanceModel(spec)
    n_i = blk.ni_block(p.ni)
    if isinstance(blk, ImageBlocking):
        halo = p.kc - 1 if blk.promote_input else 0
        return model.image_plan(
            blk.b_co, blk.b_b, p.no, n_i,
            block_bytes=image_plan_block_bytes(min(p.co, blk.b_co) + halo),
            rb_b=rb.rb_b,
            rb_no=rb.rb_no,
            promoted_kc=p.kc if blk.promote_input else None,
        )
    return model.batch_plan(
        p.kc, p.no, p.b, n_i,
        block_bytes=batch_plan_block_bytes(p.b),
        rb_b=rb.rb_b,
        rb_no=rb.rb_no,
        promoted_b_co=blk.b_co if blk.promote_filter else None,
    )


def _measure_job(
    job: Tuple[Dict[str, Any], Dict[str, int], SW26010Spec, int]
) -> Tuple[float, float]:
    """Worker: timed schedule walk of one candidate; returns (seconds, gflops).

    Module-level so :func:`parallel_map` can pickle it.
    """
    cand_dict, params_dict, spec, fused_pool = job
    candidate = Candidate.from_dict(cand_dict)
    params = params_from_dict(params_dict)
    plan = candidate.build(params, spec)
    report = engine_for_plan(plan, spec=spec, fused_pool=fused_pool).evaluate()
    return report.seconds, report.gflops


def _resolve_cache(
    cache: Union[None, bool, str, Path, PlanCache],
) -> Optional[PlanCache]:
    """None -> default on-disk cache; False -> no persistence; path -> there."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return PlanCache()
    if isinstance(cache, PlanCache):
        return cache
    return PlanCache(cache)


def _heuristic_candidate(params: ConvParams, spec: SW26010Spec) -> Candidate:
    """The one-shot planner's choice, as a search point."""
    from repro.core.planner import plan_convolution

    plan = plan_convolution(params, spec=spec).plan
    return Candidate(
        family=plan.name,
        blocking=plan.blocking,
        register_blocking=plan.register_blocking,
    )


def _fused_feasible(
    candidate: Candidate,
    params: ConvParams,
    spec: SW26010Spec,
    fused_pool: int,
) -> bool:
    """Whether the candidate's plan still fits LDM with the pool accumulator.

    The fastest unfused plans pack LDM to the byte; tuning *for* a fused
    pipeline must reject them up front, or the measured winner would be
    unbuildable at execution time.
    """
    if fused_pool <= 1:
        return True
    try:
        engine_for_plan(
            candidate.build(params, spec), spec=spec, fused_pool=fused_pool
        )
    except (PlanError, LDMOverflowError):
        return False
    return True


def autotune(
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    backend: str = "numpy",
    cache: Union[None, bool, str, Path, PlanCache] = None,
    top_k: int = 12,
    jobs: Optional[int] = 1,
    fault_plan=None,
    register_blockings: Optional[Sequence[RegisterBlocking]] = None,
    force: bool = False,
    fused_pool: int = 1,
    families: Optional[Sequence[str]] = None,
    algorithms: Union[None, str, Sequence[str]] = None,
) -> TunedPlan:
    """Pick (and persist) the fastest plan for one conv shape.

    ``cache`` is a :class:`PlanCache`, a path to a cache directory, ``None``
    for the default on-disk cache, or ``False`` for a pure in-process tune
    with no persistence.  ``force=True`` skips the cache read (the winner is
    still stored).  With a ``fault_plan`` the degraded machine is tuned:
    candidates are timed at the derated DMA bandwidth on the surviving
    submesh, and the cache key carries the *effective* mesh size so healthy
    and degraded plans never alias.  ``fused_pool=s`` tunes for a fused
    ``s x s`` pooling epilogue: candidates whose plan cannot also host the
    LDM pool accumulator are rejected, the survivors are timed *with* the
    epilogue's put savings, and the winner is cached under a fused key.
    ``families`` restricts the search to a subset of the loop-schedule
    families (see :func:`~repro.tune.space.enumerate_candidates`); the
    restriction is part of the cache key, so a family-restricted winner
    never aliases the unrestricted one.  ``algorithms`` opts the search
    into the zoo's lowered families (im2col, Winograd) alongside or
    instead of the direct mapping — like ``families`` it enters the cache
    key only when set, so every pre-zoo direct entry keeps its key.
    """
    resolved_algorithms = resolve_algorithms(algorithms)
    if fault_plan is not None and resolved_algorithms != ("direct",):
        raise PlanError(
            "degraded-machine tuning supports the direct algorithm only; "
            "drop the algorithms= restriction or the fault plan"
        )
    plan_cache = _resolve_cache(cache)
    mesh_size = spec.mesh_size
    if fault_plan is not None:
        fenced = fault_plan.fenced(spec.mesh_size)
        if fenced:
            mesh_size = effective_mesh_size(spec.mesh_size, fenced)

    if plan_cache is not None and not force:
        entry = plan_cache.load(
            params, spec, backend, mesh_size, fused_pool, families, algorithms
        )
        if entry is not None:
            plan = plan_from_dict(entry["plan"], spec=spec)
            tuning = entry.get("tuning", {})
            return TunedPlan(
                plan=plan,
                candidate=Candidate(
                    family=plan.name,
                    blocking=plan.blocking,
                    register_blocking=plan.register_blocking,
                    algorithm=getattr(plan, "algorithm", "direct"),
                ),
                gflops=float(tuning.get("gflops", 0.0)),
                seconds=float(tuning.get("seconds", 0.0)),
                source="cache",
                candidates=int(tuning.get("candidates", 0)),
                measured=0,
                cache_path=plan_cache.path_for(
                    params, spec, backend, mesh_size, fused_pool, families,
                    algorithms,
                ),
            )

    candidates = enumerate_candidates(
        params,
        spec,
        register_blockings=register_blockings,
        families=families,
        algorithms=algorithms,
    )
    scored = sorted(
        candidates,
        key=lambda c: score_candidate(c, params, spec).flops,
        reverse=True,
    )
    survivors: List[Candidate] = []
    seeds: List[Candidate] = []
    if "direct" in resolved_algorithms:
        heuristic = _heuristic_candidate(params, spec)
        if families is None or heuristic.family in families:
            seeds = [heuristic]
    # Every algorithm family in the search gets its best-scored candidate
    # measured: the closed-form scores of the lowered families are built on
    # a different roofline than the direct ones, so a cross-family ranking
    # error could otherwise exclude a whole family from the measured set.
    # The measurement — not the model — must decide the winner.
    for algo in resolved_algorithms:
        if algo == "direct":
            continue
        for cand in scored:
            if cand.algorithm == algo:
                seeds.append(cand)
                break
    # The lowered seeds ride on top of the direct budget, not inside it:
    # the zoo's measured set must be a superset of the direct-only one, or
    # adding algorithms could displace the direct winner and regress.
    budget = max(1, top_k) + sum(1 for s in seeds if s.algorithm != "direct")
    for cand in seeds + scored:
        if len(survivors) > budget:
            break
        if cand in survivors:
            continue
        if not _fused_feasible(cand, params, spec, fused_pool):
            continue
        survivors.append(cand)
    if not survivors:
        raise PlanError(
            f"no candidate for {params.describe()} can host a fused "
            f"{fused_pool}x{fused_pool} pooling accumulator in LDM"
        )

    params_dict = params_to_dict(params)
    # Measurements are counted so serving can *prove* its warm steady state:
    # a request that never tunes inline records zero here.
    current_telemetry().counters.add("tune.measurements", len(survivors))
    if fault_plan is None:
        results = parallel_map(
            _measure_job,
            [(c.to_dict(), params_dict, spec, fused_pool) for c in survivors],
            jobs=jobs,
        )
    else:
        # Degraded tuning runs in-process: the fault plan's RNG streams and
        # ledger stay attached to the caller's instance.
        results = []
        for cand in survivors:
            plan = cand.build(params, spec)
            report = ConvolutionEngine(
                plan, spec=spec, fault_plan=fault_plan, fused_pool=fused_pool
            ).evaluate()
            results.append((report.seconds, report.gflops))

    best_i = min(
        range(len(survivors)),
        key=lambda i: (results[i][0], survivors[i].describe()),
    )
    winner = survivors[best_i]
    seconds, gflops = results[best_i]
    plan = winner.build(params, spec)

    cache_path: Optional[Path] = None
    if plan_cache is not None:
        tuning = {
            "gflops": gflops,
            "seconds": seconds,
            "candidates": len(candidates),
            "measured": len(survivors),
            "winner": winner.describe(),
        }
        if winner.algorithm != "direct":
            tuning["algorithm"] = winner.algorithm
        cache_path = plan_cache.store(
            params,
            spec,
            backend,
            mesh_size,
            plan_to_dict(plan),
            tuning,
            fused_pool,
            families,
            algorithms,
        )
    return TunedPlan(
        plan=plan,
        candidate=winner,
        gflops=gflops,
        seconds=seconds,
        source="tuned",
        candidates=len(candidates),
        measured=len(survivors),
        cache_path=cache_path,
    )


def warm_cache(
    shapes: Sequence[ConvParams],
    spec: SW26010Spec = DEFAULT_SPEC,
    backend: str = "numpy",
    cache: Union[None, str, Path, PlanCache] = None,
    top_k: int = 12,
    jobs: int = 1,
    num_groups: Optional[int] = None,
) -> List[TunedPlan]:
    """Pre-tune a model zoo entry's conv shapes (and their CG row strips).

    ``evaluate_chip`` splits output rows across core groups and plans each
    strip, so warming tunes both every full shape and the per-CG strip
    shapes it will actually request — a warmed sweep never tunes inline.
    """
    from repro.hw.chip import SW26010Chip

    plan_cache = _resolve_cache(cache)
    chip = SW26010Chip(spec)
    n = num_groups if num_groups is not None else spec.num_core_groups
    wanted: List[ConvParams] = []
    for params in shapes:
        for candidate_shape in [params] + [
            params.with_rows(stop - start)
            for start, stop in chip.partition_rows(params.ro, n)
            if stop > start
        ]:
            if candidate_shape not in wanted:
                wanted.append(candidate_shape)
    return [
        autotune(
            shape,
            spec=spec,
            backend=backend,
            cache=plan_cache if plan_cache is not None else False,
            top_k=top_k,
            jobs=jobs,
        )
        for shape in wanted
    ]
