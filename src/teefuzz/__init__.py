"""State-aware greybox fuzzing of a simulated GP-TEE trusted OS."""

__version__ = "0.1.0"

from .config import CampaignConfig, load_config, parse_config
from .corpus_io import format_program, load_seed_corpus, parse_program
from .fuzzing import CampaignReport, FuzzCampaign, crash_id_of, preserve
from .minitee import ExecutionResult, FaultRecord, MiniTee
from .payload import deserialize_payload, serialize_payload
from .probe import SimProbe
from .statevars import (
    CompiledRegions,
    StateVarRegion,
    collect_snapshots,
    filter_volatile,
    infer_state_vars,
    load_regions,
    save_regions,
    state_hash_from_snapshots,
)
from .templates import load_bundled_templates, load_templates, parse_templates
from .testcase import (
    ArgValue,
    Syscall,
    TestCase,
    generate_testcase,
    mutate_testcase,
    validate_testcase,
)
from .tracecov import TracePacket, coverage_of, fnv1a64
