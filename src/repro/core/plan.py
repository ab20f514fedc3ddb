"""Query planning: one question (or a batch) -> an explicit execution plan.

This module is the middle stage of the request/plan/execute serving API:

    AskRequest --(QueryPlanner.plan)--> QueryPlan --(CacheMind.execute)-->
    AskResponse

A :class:`QueryPlan` makes everything the monolithic ``ask()`` used to do
implicitly *inspectable before any work runs*: the parsed
:class:`~repro.core.query.QueryIntent`, the retriever route the intent maps
to, and the exact set of :class:`PlannedJob` simulations the answer depends
on.  Plans are pure descriptions — building one runs no simulation — which
is the seam batching, deduplication and remote serving plug into:
:func:`QueryPlanner.merge_jobs` collapses a batch of plans into the unique
``(workload, policy, config, mode, detail)`` job set, so N questions over
the same pair simulate it exactly once.

Job scoping: a CacheMind session answers over one shared trace database
(retrievers like Sieve consult *every* entry's statistics for comparison and
workload-analysis questions, and Ranger's sandbox sees every key of the
``loaded_data`` store), so a plan names the session's full
``workloads x policies`` matrix of simulations.  Per-access tables are not
part of the plan: each entry's table is built on first read, so a question
builds only the tables its retriever actually reads (none for a miss rate).
That keeps planned execution byte-identical to the legacy path; narrowing
the simulated job set per-intent is deliberately a planner-local decision
future work can make without touching callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.answer import _dataclass_from_dict
from repro.core.query import QueryIntent, QueryParser
from repro.retrieval.base import Retriever, resolve_retriever_name


# ----------------------------------------------------------------------
# request
# ----------------------------------------------------------------------
@dataclass
class AskRequest:
    """One question on its way into the pipeline.

    ``retriever`` optionally forces a retrieval strategy (a registered name,
    or an in-process :class:`~repro.retrieval.base.Retriever` instance —
    instances cannot cross the wire).  ``request_id`` is assigned by the
    serving layer when empty, and echoed back on the response.
    """

    question: str
    retriever: Union[str, Retriever, None] = None
    request_id: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (refuses in-process retriever instances)."""
        if self.retriever is not None and not isinstance(self.retriever, str):
            raise ValueError(
                "AskRequest with a Retriever instance cannot be serialised; "
                "use a registered retriever name for remote requests")
        return {"question": self.question, "retriever": self.retriever,
                "request_id": self.request_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AskRequest":
        return cls(**_dataclass_from_dict(cls, payload))


def as_request(request_or_question: Union[str, AskRequest],
               retriever: Union[str, Retriever, None] = None) -> AskRequest:
    """Coerce a bare question string into an :class:`AskRequest`.

    An explicit ``retriever`` only applies to bare strings; a ready-made
    request already carries its own override.
    """
    if isinstance(request_or_question, AskRequest):
        return request_or_question
    return AskRequest(question=request_or_question, retriever=retriever)


# ----------------------------------------------------------------------
# planned simulation jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlannedJob:
    """One simulation the plan depends on, named by its full identity.

    Frozen and hashable so batch merging can dedupe on the job itself; the
    identity fields mirror what the simulation memoiser/store key on (minus
    the trace content fingerprint, which only exists once the trace is
    generated at execution time).
    """

    workload: str
    policy: str
    num_accesses: int
    seed: int
    config_name: str
    mode: str
    detail: str = "full"

    @property
    def key(self) -> Tuple:
        """The dedup identity: two equal keys must simulate once."""
        return (self.workload, self.policy, self.num_accesses, self.seed,
                self.config_name, self.mode, self.detail)

    def to_dict(self) -> Dict[str, Any]:
        return {"workload": self.workload, "policy": self.policy,
                "num_accesses": self.num_accesses, "seed": self.seed,
                "config_name": self.config_name, "mode": self.mode,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PlannedJob":
        return cls(**_dataclass_from_dict(cls, payload))


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass
class QueryPlan:
    """Everything needed to execute one request, decided up front.

    ``route`` is the canonical retriever name; ``retriever_instance``
    carries an in-process :class:`Retriever` override (never serialised)
    that execution must use instead of resolving ``route``.
    """

    request: AskRequest
    intent: QueryIntent
    route: str
    jobs: Tuple[PlannedJob, ...] = ()
    retriever_instance: Optional[Retriever] = field(default=None, repr=False)

    @property
    def question(self) -> str:
        return self.request.question

    def job_keys(self) -> List[Tuple]:
        return [job.key for job in self.jobs]

    def describe(self) -> str:
        return (f"plan[{self.route}] {self.intent.describe()} "
                f"({len(self.jobs)} jobs)")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (intent as its describe() string)."""
        return {
            "request": self.request.to_dict(),
            "intent": self.intent.describe(),
            "question_type": self.intent.question_type,
            "route": self.route,
            "jobs": [job.to_dict() for job in self.jobs],
        }


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
class QueryPlanner:
    """Turns requests into :class:`QueryPlan` objects for one session shape.

    The planner owns no simulation state: it needs only the session's query
    parser, its routing function and the session parameters that define the
    job matrix.  ``router`` maps a parsed intent to a retriever name (the
    session passes :meth:`CacheMind.route`); ``forced_retriever`` mirrors
    the session-wide override.
    """

    def __init__(self, parser: QueryParser,
                 router: Callable[[QueryIntent], str],
                 workloads: Sequence[str], policies: Sequence[str],
                 num_accesses: int, seed: int, config_name: str, mode: str,
                 detail: str = "full",
                 forced_retriever: Union[str, Retriever, None] = None):
        self.parser = parser
        self.router = router
        self.workloads = tuple(workloads)
        self.policies = tuple(policies)
        self.num_accesses = num_accesses
        self.seed = seed
        self.config_name = config_name
        self.mode = mode
        self.detail = detail
        self.forced_retriever = forced_retriever
        #: job count of the last merge_jobs() call through this planner —
        #: the batch-dedup probe tests and the service read.
        self.last_merged_job_count: Optional[int] = None

    # ------------------------------------------------------------------
    def matrix_jobs(self) -> Tuple[PlannedJob, ...]:
        """The session's full ``workloads x policies`` simulation matrix, in
        the (workload-major) order the database builder uses."""
        return tuple(
            PlannedJob(workload=workload, policy=policy,
                       num_accesses=self.num_accesses, seed=self.seed,
                       config_name=self.config_name, mode=self.mode,
                       detail=self.detail)
            for workload in self.workloads for policy in self.policies)

    def _resolve_route(self, request: AskRequest,
                       intent: QueryIntent) -> Tuple[str, Optional[Retriever]]:
        # `is None` rather than truthiness: an explicit '' is a configuration
        # error and must surface as UnknownNameError, not silent routing.
        chosen = (request.retriever if request.retriever is not None
                  else self.forced_retriever)
        if chosen is None:
            return self.router(intent), None
        if isinstance(chosen, str):
            return resolve_retriever_name(chosen), None
        return chosen.name, chosen

    def plan(self, request_or_question: Union[str, AskRequest]) -> QueryPlan:
        """Parse and route one request into an executable plan."""
        request = as_request(request_or_question)
        intent = self.parser.parse(request.question)
        route, instance = self._resolve_route(request, intent)
        return QueryPlan(request=request, intent=intent, route=route,
                         jobs=self.matrix_jobs(),
                         retriever_instance=instance)

    def plan_many(self, requests: Sequence[Union[str, AskRequest]]
                  ) -> List[QueryPlan]:
        """Plan a batch (one plan per request, in order)."""
        return [self.plan(request) for request in requests]

    # ------------------------------------------------------------------
    def merge_jobs(self, plans: Sequence[QueryPlan]
                   ) -> Tuple[PlannedJob, ...]:
        """Deduplicate the batch's jobs, preserving first-seen order.

        This is the batching contract: however many plans name the same
        ``(workload, policy, config, mode, detail)`` job, it appears once in
        the merged set and therefore simulates once.  The merged count is
        recorded in :attr:`last_merged_job_count`.
        """
        merged = merge_jobs(plans)
        self.last_merged_job_count = len(merged)
        return merged


def merge_jobs(plans: Sequence[QueryPlan]) -> Tuple[PlannedJob, ...]:
    """The unique jobs across ``plans``, in first-seen order."""
    return merge_job_lists(plan.jobs for plan in plans)


def merge_job_lists(
        job_lists: Iterable[Sequence[PlannedJob]]) -> Tuple[PlannedJob, ...]:
    """The unique jobs across any job sequences, in first-seen order.

    The same dedup contract as :func:`merge_jobs` for callers that produce
    :class:`PlannedJob` sets without a :class:`QueryPlan` around them — the
    experiment compiler (``repro.core.experiment``) merges one job list per
    grid cell through here, so duplicate cells simulate once.
    """
    seen: Dict[Tuple, PlannedJob] = {}
    for jobs in job_lists:
        for job in jobs:
            seen.setdefault(job.key, job)
    return tuple(seen.values())
