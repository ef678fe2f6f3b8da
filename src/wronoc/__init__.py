"""Exact physical-parameter selection for wavelength-routed optical NoCs.

Two-phase flow: phase 1 picks ring radii and carrier sets maximising the
minimum per-radius communication parallelism under routing-fault
constraints; phase 2 re-selects radii and carriers at a fixed parallelism
so the carriers spread as widely as possible over the spectrum.  Both
phases are exact, deterministic, and come with brute-force oracles.
"""

from .conflict import ConflictPair, ConflictSet, conflicts_of
from .generator import GenSpec, GeneratorError, SplitMix64, generate
from .model import (
    DeltaPolicy,
    Instance,
    ModelError,
    ParseError,
    RadiusEntry,
    apply_delta,
    export_asp_facts,
    format_instance,
    instance_digest,
    parse_instance,
    validate,
)
from .parallelism import (
    ParallelismSolution,
    SolveConfig,
    oracle_max_parallelism,
    solve_max_parallelism,
)
from .spacing import SpacingProblem, SpacingSolution, oracle_spacing, solve_spacing
from .verify import check_parallelism_solution, check_spacing_solution

__version__ = "0.1.0"

__all__ = [
    "ConflictPair",
    "ConflictSet",
    "DeltaPolicy",
    "GenSpec",
    "GeneratorError",
    "Instance",
    "ModelError",
    "ParallelismSolution",
    "ParseError",
    "RadiusEntry",
    "SolveConfig",
    "SpacingProblem",
    "SpacingSolution",
    "SplitMix64",
    "apply_delta",
    "check_parallelism_solution",
    "check_spacing_solution",
    "conflicts_of",
    "export_asp_facts",
    "format_instance",
    "generate",
    "instance_digest",
    "oracle_max_parallelism",
    "oracle_spacing",
    "parse_instance",
    "solve_max_parallelism",
    "solve_spacing",
    "validate",
]
