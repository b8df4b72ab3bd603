"""trustgate: zero-trust access decisions for simulated enterprise networks.

The package gates every (user, device, resource) request through four
cooperating mechanisms and ships a deterministic network simulator that
exercises them end to end:

* behavioral scoring over windowed endpoint telemetry, blended with
  peer reputation from damped power iteration over an interaction
  ledger;
* threshold secret sharing so high-sensitivity grants need a quorum of
  approvers;
* provenance-graph reduction that keeps alerts and their ancestry
  while collapsing unary chains; and
* an optimal prefix code over archived attribute records, plus an LRU
  score cache with a hard staleness ceiling.
"""

from __future__ import annotations

from .model import (
    Alert,
    AttributeKind,
    EdrEvent,
    MAX_NUMERIC_VALUE,
    ModelError,
    Severity,
    Triplet,
    read_events,
    write_events,
)
from .provenance import (
    AlertRule,
    GraphError,
    ProvenanceGraph,
    Skeleton,
    SummaryEdge,
    ancestors,
    apply_rules,
    build_graph,
    load_rules,
    reduce_to_skeleton,
    write_skeleton,
)
from .logcodec import (
    AttributeRecord,
    CodecError,
    CompressedArchive,
    Pattern,
    PatternTable,
    average_length,
    build_codebook,
    collect_patterns,
    decode,
    encode,
    read_archive,
    records_from_events,
    write_archive,
)
from .reputation import (
    GlobalTrustVector,
    InteractionLedger,
    LocalTrustMatrix,
    ReputationError,
    global_trust,
    ledger_from_obj,
    load_ledger,
    normalize,
    trust_vector_to_obj,
)
from .secretshare import (
    FieldParams,
    Share,
    ShareError,
    ThresholdPolicy,
    read_share_file,
    reconstruct,
    reconstruct_integer,
    secrecy_probe,
    split,
    split_integer,
    write_share_file,
)
from .engine import (
    ActiveAlert,
    Decision,
    EngineError,
    PiecewiseNormalizer,
    PolicyError,
    QuorumClient,
    QuorumResult,
    ResourceSpec,
    TrustPolicy,
    TrustRecord,
    audit_line,
    behavioral_score,
    decide,
    load_policy,
    make_record,
    parse_audit_line,
    policy_from_obj,
    policy_to_obj,
    quorum_approve,
    token_digest,
)
from .cache import (
    CacheConfig,
    CacheError,
    CacheMetrics,
    HitKind,
    ScoreStore,
    TrustScoreCache,
)
from .store import (
    ArchiveBatch,
    HotStore,
    StoreError,
    archive_batch,
)
from .simnet import (
    AttributeProfile,
    BehaviorProfile,
    CompromisePlan,
    DeviceSpec,
    FailureWindow,
    ReplayError,
    ScenarioConfig,
    ScenarioError,
    SimReport,
    benign_profile,
    config_digest,
    config_from_obj,
    config_to_obj,
    default_policy,
    default_rules,
    load_config,
    malicious_profile,
    reference_scenario,
    replay,
    run,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "Alert", "AttributeKind", "EdrEvent", "MAX_NUMERIC_VALUE", "ModelError",
    "Severity", "Triplet", "read_events", "write_events",
    # provenance
    "AlertRule", "GraphError", "ProvenanceGraph", "Skeleton", "SummaryEdge",
    "ancestors", "apply_rules", "build_graph", "load_rules",
    "reduce_to_skeleton", "write_skeleton",
    # logcodec
    "AttributeRecord", "CodecError", "CompressedArchive", "Pattern",
    "PatternTable", "average_length", "build_codebook", "collect_patterns",
    "decode", "encode", "read_archive", "records_from_events",
    "write_archive",
    # reputation
    "GlobalTrustVector", "InteractionLedger", "LocalTrustMatrix",
    "ReputationError", "global_trust", "ledger_from_obj",
    "load_ledger", "normalize", "trust_vector_to_obj",
    # secretshare
    "FieldParams", "Share", "ShareError", "ThresholdPolicy",
    "read_share_file", "reconstruct", "reconstruct_integer",
    "secrecy_probe", "split", "split_integer", "write_share_file",
    # engine
    "ActiveAlert", "Decision", "EngineError", "PiecewiseNormalizer",
    "PolicyError", "QuorumClient", "QuorumResult", "ResourceSpec",
    "TrustPolicy", "TrustRecord", "audit_line", "behavioral_score",
    "decide", "load_policy", "make_record",
    "parse_audit_line", "policy_from_obj", "policy_to_obj",
    "quorum_approve", "token_digest",
    # cache
    "CacheConfig", "CacheError", "CacheMetrics", "HitKind", "ScoreStore",
    "TrustScoreCache",
    # store
    "ArchiveBatch", "HotStore", "StoreError", "archive_batch",
    # simnet
    "AttributeProfile", "BehaviorProfile", "CompromisePlan", "DeviceSpec",
    "FailureWindow", "ReplayError", "ScenarioConfig", "ScenarioError",
    "SimReport", "benign_profile", "config_digest", "config_from_obj",
    "config_to_obj", "default_policy", "default_rules", "load_config",
    "malicious_profile", "reference_scenario", "replay", "run",
    "__version__",
]
