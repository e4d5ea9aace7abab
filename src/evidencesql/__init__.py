"""Auditable SQL-grounded diagnostic reasoning over multi-scale feature tables."""

__version__ = "0.1.0"

from evidencesql.agents import Question, ReasoningPlan, plan_global, plan_local
from evidencesql.backends import (
    BackendConfig,
    LlmBackendPort,
    RemoteBackend,
    ScriptedBackend,
    TemplateBackend,
)
from evidencesql.feature_store import (
    CaseBundle,
    FeatureTable,
    SchemaManifest,
    TableSchema,
    canonical_manifest,
    ingest_case,
    ingest_case_dir,
    load_manifest,
    load_training_split,
)
from evidencesql.fusion import CnnOutput, FusedDecision, fuse, fuse_sql_only
from evidencesql.knowledge import (
    FitCategory,
    FitScore,
    FeatureFinding,
    Hypothesis,
    ReferenceRange,
    build_hypothesis,
    calibrate_confidence,
    compute_empirical_ranges,
    fetch_llm_ranges,
    score_fit,
)
from evidencesql.pipeline import EvalSummary, RunConfig, batch_eval, run_case
from evidencesql.sql import (
    GuardRejection,
    QueryAst,
    ResultTable,
    ValidatedQuery,
    check_schema,
    execute,
    parse,
    render,
    sanitize,
    validate_pipeline,
)

__all__ = [
    "__version__",
    "Question", "ReasoningPlan", "plan_global", "plan_local",
    "BackendConfig", "LlmBackendPort", "RemoteBackend", "ScriptedBackend",
    "TemplateBackend",
    "CaseBundle", "FeatureTable", "SchemaManifest", "TableSchema",
    "canonical_manifest", "ingest_case", "ingest_case_dir", "load_manifest",
    "load_training_split",
    "CnnOutput", "FusedDecision", "fuse", "fuse_sql_only",
    "FitCategory", "FitScore", "FeatureFinding", "Hypothesis", "ReferenceRange",
    "build_hypothesis", "calibrate_confidence", "compute_empirical_ranges",
    "fetch_llm_ranges", "score_fit",
    "EvalSummary", "RunConfig", "batch_eval", "run_case",
    "GuardRejection", "QueryAst", "ResultTable", "ValidatedQuery",
    "check_schema", "execute", "parse", "render",
    "sanitize", "validate_pipeline",
]
