"""Workload definitions of the end-to-end benchmark.

Three offline runs of Algorithm 1 and one run through the sharded PROX
HTTP tier.  Every workload runs the default ``SummarizationConfig``
apart from the step budget (and ``max_enumerate`` for the sampled
workload), so the numbers judge the defaults.

``--seed`` picks a seed from the workload's committed pool
(``golden/<workload>.json``): a dataset generator seed for the offline
workloads, the read-route seed for serve-mixed.  The pools hold seeds
whose default runs took about the same time, so the seed varies the
inputs but not the amount of work, and every pooled seed has a committed
golden fingerprint to check the run against.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

OFFLINE = ("movielens-exact", "movielens-sampled", "ddp-exact")
SERVE = "serve-mixed"
WORKLOADS = OFFLINE + (SERVE,)


@dataclass(frozen=True)
class OfflineSpec:
    """One offline workload: a dataset generator plus config overrides."""

    dataset: str
    dataset_kwargs: Dict[str, int]
    config_kwargs: Dict[str, int]
    #: Typical seconds of one timed process on the reference box; fixes
    #: how many pool cycles a run of ``--seconds`` makes.
    nominal_s: float = 1.0


OFFLINE_SPECS = {
    "movielens-exact": OfflineSpec(
        "movielens",
        {"n_users": 48, "n_movies": 60},
        {"max_steps": 20},
        nominal_s=6.0,
    ),
    "movielens-sampled": OfflineSpec(
        "movielens",
        {"n_users": 48, "n_movies": 60},
        {"max_steps": 10, "max_enumerate": 0},
        nominal_s=7.5,
    ),
    "ddp-exact": OfflineSpec(
        "ddp",
        {"n_templates": 16, "executions_per_template": 10},
        {"max_steps": 30},
        nominal_s=5.0,
    ),
}

#: Tiny sizes of the same workloads: they finish in seconds and check
#: fingerprints and metric emission (the benchmark's own tests).
SMOKE_OFFLINE_SPECS = {
    "movielens-exact": OfflineSpec(
        "movielens", {"n_users": 12, "n_movies": 8},
        {"max_steps": 4},
    ),
    "movielens-sampled": OfflineSpec(
        "movielens", {"n_users": 12, "n_movies": 8},
        {"max_steps": 3, "max_enumerate": 0},
    ),
    "ddp-exact": OfflineSpec(
        "ddp", {"n_templates": 3, "executions_per_template": 3},
        {"max_steps": 4},
    ),
}


def offline_spec(name: str, smoke: bool) -> OfflineSpec:
    return (SMOKE_OFFLINE_SPECS if smoke else OFFLINE_SPECS)[name]


def build_instance(spec: OfflineSpec, instance_seed: int):
    """Generate the workload's dataset instance (seeded)."""
    from repro import datasets

    if spec.dataset == "movielens":
        return datasets.generate_movielens(
            datasets.MovieLensConfig(seed=instance_seed, **spec.dataset_kwargs)
        )
    return datasets.generate_ddp(
        datasets.DDPConfig(seed=instance_seed, **spec.dataset_kwargs)
    )


def build_config(spec: OfflineSpec):
    from repro.core.problem import SummarizationConfig

    return SummarizationConfig(**spec.config_kwargs)


# -- serve-mixed ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    """The serve-mixed traffic: sessions, request mix and script length."""

    session_config: Dict[str, object]
    requests_per_session: int
    summarize_steps: int = 3
    #: Ingested deltas per session that register a new user with ratings;
    #: the other deltas are valuation extensions (spam flags).  Every new
    #: user adds candidate pairs: with user deltas only, 20 ingests grow
    #: a 16-user session from 79 to 429 step-1 candidates and a naive
    #: /summarize from 0.45 s to 12.6 s, far past one run.
    user_deltas: int = 2
    #: Generator seeds of the two sessions' instances and deltas.
    session_seeds: Tuple[int, int] = (0, 10)
    #: Seed of the request order.  The order decides where evicts fall,
    #: hence which summaries are repaired and which recomputed, and moved
    #: run_s by up to 35% between orders; so it is fixed and the
    #: benchmark seed picks only the read routes.
    order_seed: int = 0
    workers: int = 2
    #: Typical seconds of one pass of the script on the reference box;
    #: fixes how many passes a run of ``--seconds`` makes.
    nominal_pass_s: float = 1.0
    #: Request shares: summarize / ingest / reads / evict.
    mix: Dict[str, float] = field(
        default_factory=lambda: {
            "summarize": 0.30,
            "ingest": 0.20,
            "read": 0.45,
            "evict": 0.05,
        }
    )


SERVE_SPEC = ServeSpec(
    session_config={"n_users": 14, "n_movies": 8, "include_movie_merges": True},
    requests_per_session=50,
    nominal_pass_s=7.0,
)
SMOKE_SERVE_SPEC = ServeSpec(
    session_config={"n_users": 6, "n_movies": 4, "include_movie_merges": True},
    requests_per_session=16,
    user_deltas=1,
)

#: Session ids chosen so the two sessions hash to different workers of a
#: two-worker ring (checked at run time against ``HashRing``).
SESSION_IDS = ("bench-a", "bench-c")

READ_PATHS = ("/summary/groups", "/summary/expression", "/titles")


def serve_spec(smoke: bool) -> ServeSpec:
    return SMOKE_SERVE_SPEC if smoke else SERVE_SPEC


@dataclass
class Op:
    """One scripted request of a session."""

    kind: str  # summarize | ingest | read | evict
    method: str
    path: str
    body: Optional[dict] = None


def summarize_body(spec: ServeSpec) -> dict:
    return {"number_of_steps": spec.summarize_steps, "repair": "on"}


def session_script(
    spec: ServeSpec, seed: int, index: int, order_seed: Optional[int] = None
):
    """``(session_body, titles, ops, final_op)`` for session ``index``.

    The op kinds are the mix's exact shares in an order seeded by
    ``order_seed`` (default ``spec.order_seed``); ``seed`` picks the read
    routes.  Every
    ingest carries the next pre-generated delta, so deltas apply in
    generation order.  The script starts with a summarize (reads need a
    summary); ``final_op`` is one summarize after all of the session's
    deltas -- the request the fingerprint check compares.
    """
    from repro.datasets import (
        MovieLensConfig,
        MovieLensDeltaConfig,
        generate_movielens,
        generate_movielens_deltas,
    )
    from repro.serialization import delta_to_dict

    session_seed = spec.session_seeds[index]
    config = dict(spec.session_config, seed=session_seed)
    if order_seed is None:
        order_seed = spec.order_seed
    kinds: List[str] = []
    for name, share in spec.mix.items():
        kinds.extend([name] * round(share * spec.requests_per_session))
    random.Random(f"serve-mixed/order/{order_seed}/{index}").shuffle(kinds)
    routes = random.Random(f"serve-mixed/reads/{seed}/{index}")
    kinds.insert(0, "summarize")
    n_ingest = kinds.count("ingest")
    instance = generate_movielens(MovieLensConfig(**config))
    growing = generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=spec.user_deltas, seed=session_seed)
    )
    flags = generate_movielens_deltas(
        instance,
        MovieLensDeltaConfig(
            n_deltas=n_ingest - spec.user_deltas, spam_flag_every=1, seed=session_seed
        ),
    )
    # User deltas go to evenly spaced ingests; each stream keeps its order.
    grow_at = {n_ingest * k // spec.user_deltas for k in range(spec.user_deltas)}
    deltas = [
        growing.pop(0) if position in grow_at else flags.pop(0)
        for position in range(n_ingest)
    ]
    sid = SESSION_IDS[index]
    prefix = f"/sessions/{sid}"
    ops: List[Op] = []
    next_delta = 0
    for kind in kinds:
        if kind == "summarize":
            ops.append(Op(kind, "POST", prefix + "/summarize", summarize_body(spec)))
        elif kind == "ingest":
            ops.append(
                Op(kind, "POST", prefix + "/ingest", delta_to_dict(deltas[next_delta]))
            )
            next_delta += 1
        elif kind == "read":
            ops.append(Op(kind, "GET", prefix + routes.choice(READ_PATHS)))
        else:
            ops.append(Op(kind, "POST", prefix + "/evict"))
    final = Op("summarize", "POST", prefix + "/summarize", summarize_body(spec))
    titles = sorted({term.group for term in instance.expression.terms})
    session_body = {"session_id": sid, "config": config}
    return session_body, titles, ops, final


# -- instance-seed pools and golden fingerprints -------------------------------


def golden_path(workload: str, smoke: bool) -> str:
    suffix = "-smoke" if smoke else ""
    return os.path.join(GOLDEN_DIR, f"{workload}{suffix}.json")


def load_golden(workload: str, smoke: bool) -> Dict[str, object]:
    """``{"pool": [...], "fingerprints": {seed: fingerprint}}``."""
    with open(golden_path(workload, smoke)) as handle:
        return json.load(handle)


def pool_seed(workload: str, seed: int, smoke: bool) -> int:
    """The pooled seed a benchmark ``--seed`` selects."""
    pool = load_golden(workload, smoke)["pool"]
    return int(pool[seed % len(pool)])
