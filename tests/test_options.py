"""The settable options of the deployment and client path, pinned by name.

``LIDCTestbed`` → ``ComputeOverlay`` → ``LIDCCluster`` → ``Gateway`` /
``FileServer`` → ``LIDCClient``, and the genomics, data-loading and
simulation pieces under them, are configured through the parameters below
and nothing else.  Every value here has a setter somewhere in the tree; a
value that only ever takes its default is a module constant instead.  A new
option on this path therefore shows up as an edit to :data:`OPTIONS`.
"""

import dataclasses
import importlib
import importlib.util
import inspect

import pytest

#: ``module:qualname`` -> the names a caller can set, in signature order.
#: A class stands for its constructor; a dataclass for its fields.
OPTIONS = {
    "repro.core.framework:TestbedConfig": (
        "seed", "node_count", "node_cpu", "node_memory", "enable_result_cache",
        "load_paper_datasets", "load_synthetic_datasets",
    ),
    "repro.core.framework:LIDCTestbed.add_cluster": (
        "name", "connect_to", "latency_s", "node_count", "node_cpu", "node_memory",
    ),
    "repro.core.framework:LIDCTestbed.submit_and_wait": ("request", "client", "fetch_result"),
    "repro.core.cluster_endpoint:LIDCCluster": (
        "env", "spec", "registry", "runtime_model", "enable_result_cache",
        "load_paper_datasets", "load_synthetic_datasets", "seed", "tracer", "gateway_shards",
    ),
    "repro.core.cluster_endpoint:LIDCCluster.announce_prefixes": (),
    "repro.core.gateway:Gateway": (
        "env", "cluster", "forwarder", "datalake", "services", "enable_result_cache", "tracer",
    ),
    "repro.core.gateway:Gateway.can_fit": ("request",),
    "repro.core.service:ServiceRegistry.with_defaults": ("sra_registry", "runtime_model"),
    "repro.core.overlay:ComputeOverlay.add_access_router": ("name", "cs_capacity"),
    "repro.core.overlay:ComputeOverlay.remove_cluster": ("name",),
    "repro.core.overlay:ComputeOverlay.connect": ("a", "b", "latency_s", "bandwidth_bps"),
    "repro.core.client:LIDCClient": (
        "env", "forwarder", "name", "poll_interval_s", "retry_policy",
    ),
    "repro.core.client:LIDCClient.submit_interest": ("request", "unique"),
    "repro.core.client:LIDCClient.submit": (
        "request", "unique", "fetch_result", "delay_s", "deadline_s",
    ),
    "repro.core.client:LIDCClient.submit_many": ("requests", "fetch_result"),
    "repro.core.client:LIDCClient.poll_status": ("job_id", "lifetime_s", "status_name"),
    "repro.core.client:LIDCClient.wait_for_completion": ("job_id", "status_name", "_handle"),
    "repro.core.client:LIDCClient.retrieve_result": ("result_name", "fetch_payload"),
    "repro.core.client:JobHandle": (
        "client", "request", "done", "unique", "fetch_result", "delay_s", "deadline_s",
    ),
    "repro.core.client:JobHandle.cancel": (),
    "repro.core.workflow:GenomicsWorkflow": ("client", "fetch_results"),
    "repro.core.workflow:GenomicsWorkflow.run": ("request",),
    "repro.core.workflow:GenomicsWorkflow.blast": ("srr_id", "reference", "cpu", "memory_gb"),
    "repro.core.baseline:CentralizedController": ("env", "clusters"),
    "repro.datalake.fileserver:FileServer": ("env", "forwarder", "datalake", "segment_size"),
    "repro.datalake.repo:DataLake": ("pvc", "name", "clock"),
    "repro.ndn.shard:ShardedForwarder": (
        "env", "name", "shards", "key_depth", "cs_capacity", "tracer", "hot_cache",
    ),
    "repro.ndn.shard:ShardFace": ("env", "owner", "label"),
    "repro.ndn.strategy:StrategyChoiceTable": (),
    "repro.cluster.dns:ClusterDNS": ("api",),
    "repro.cluster.scheduler:Scheduler": ("api",),
    "repro.ndn.packet:Data.verify": (),
    "repro.chaos.driver:ChaosDriver": ("env", "overlay", "schedule"),
    "repro.sim.topology:Link": ("a", "b", "latency_s", "bandwidth_bps"),
    "repro.analysis.lint.engine:Linter": ("rules",),
    "repro.core.framework:LIDCTestbed.multi_cluster": ("cluster_count", "seed", "config_kwargs"),
    "repro.core.overlay:ComputeOverlay.add_cluster": (
        "cluster", "connect_to", "bandwidth_bps", "announce",
    ),
    "repro.core.gateway:Gateway.submit_local": ("request",),
    "repro.core.validation:BlastValidator": ("registry",),
    "repro.core.service:ServiceSchema": ("fields",),
    "repro.core.caching:ResultCache": (),
    "repro.genomics.blast:MagicBlast": ("reference",),
    "repro.genomics.sra:SraRegistry": (),
    "repro.genomics.sra:SraRegistry.validate": ("accession",),
    "repro.genomics.sra:SraRegistry.register_synthetic": (
        "accession", "genome_type", "read_count", "read_length", "organism",
    ),
    "repro.genomics.sequences:SequenceGenerator.random_genome": ("length", "name"),
    "repro.datalake.loader:DataLoadingTool.load_synthetic_datasets": ("lake",),
    "repro.cluster.node:Node.build": ("name", "cpu", "memory", "labels"),
    "repro.sim.engine:Environment": (),
}

#: Callables that only tests took, or whose callers already knew everything.
GONE = (
    "repro.cluster.scheduler:ShardAutoscaler",
    "repro.cluster.scheduler:ScalingDecision",
    "repro.core.workflow:CampaignResult",
    "repro.core.workflow:GenomicsWorkflow.run_campaign",
    "repro.core.framework:LIDCTestbed.submit_many_and_wait",
    "repro.core.framework:LIDCTestbed.run_blast",
    "repro.core.framework:LIDCTestbed.workflow",
    "repro.core.client:LIDCClient.gather",
    "repro.core.client:LIDCClient.run_workflow",
    "repro.core.client:JobHandle.wait",
    "repro.core.overlay:_OverlayLink",
    "repro.ndn.client:Producer",
    "repro.ndn.client:Producer.publish",
    "repro.ndn.client:Producer.make_data",
    "repro.ndn.segmentation:segment_content",
    "repro.core:request_to_url",
    "repro.analysis.lint.engine:ProjectRule",
    "repro.ndn.packet:Data.sign",
    "repro.ndn.packet:Data.is_signed",
    "repro.cluster.scheduler:SchedulingPolicy",
    "repro.core.service:ServiceRuntime",
    "repro.core.service:ServiceDefinition.clone",
    "repro.core.service:ServiceRegistry.unregister",
    "repro.core.service:ServiceRegistry.runner_for",
    "repro.core.service:ServiceRegistry.has_app",
    "repro.core.service:ServiceRegistry.applications",
    "repro.core.service:ServiceRegistry.resolve",
    "repro.core.service:ServiceSchema.canonicalise",
    "repro.core.service:ServiceSchema.encode",
    "repro.core.gateway:Gateway.register_service",
    "repro.core.cluster_endpoint:LIDCCluster.register_service",
    "repro.analysis.lint.report:render_sarif",
    "repro.analysis.lint.report:parse_json",
    "repro.analysis.lint.report:diff_reports",
    "repro.analysis.lint.engine:Linter.config_signature",
    "repro.analysis.lint.engine:Finding.from_dict",
    "repro.analysis.lint.engine:ModuleRecord.from_dict",
    "repro.analysis.lint.symbols:ModuleSummary.from_dict",
    "repro.analysis.lint.effects:EffectSite.from_dict",
    "repro.sim.engine:SerialServer",
    "repro.ndn.shard:RebalanceReport.as_dict",
    "repro.analysis.lint.engine:Profile",
    "repro.ndn.shard:_shard_key",
    "repro.cluster.quantity:format_memory",
    "repro.cluster.quantity:format_cpu",
    "repro.cluster.storage:StorageClass",
    "repro.sim.rng:SeededRNG.lognormal",
    "repro.sim.rng:SeededRNG.shuffle",
    "repro.sim.rng:SeededRNG.bernoulli",
    "repro.sim.rng:SeededRNG.weighted_choice",
    "repro.genomics.sequences:SequenceGenerator.mutate",
    "repro.genomics.sequences:SequenceGenerator.random_reads",
    "repro.genomics.sequences:FastqRecord.mean_quality",
)

#: Modules that went whole: the controller's placement policies and the
#: completion-time predictor (the overlay's forwarding does the placing),
#: the signers and key chain (every Data is DigestSha256-signed in
#: ``Data.encode``), reprolint's summary cache (every lint is cold), and the
#: HTTP naming facade (only its tests called it).
GONE_MODULES = (
    "repro.core.placement",
    "repro.core.predictor",
    "repro.ndn.security",
    "repro.analysis.lint.cache",
    "repro.core.http_naming",
)


def _resolve(target):
    module_name, _colon, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def settable_names(obj) -> tuple:
    """The names a caller can set on ``obj`` (``self`` excluded)."""
    if dataclasses.is_dataclass(obj):
        return tuple(field.name for field in dataclasses.fields(obj) if field.init)
    names = tuple(inspect.signature(obj).parameters)
    return names[1:] if names[:1] == ("self",) else names


@pytest.mark.parametrize("target", sorted(OPTIONS))
def test_options_are_exactly_the_pinned_ones(target):
    assert settable_names(_resolve(target)) == OPTIONS[target]


@pytest.mark.parametrize("target", GONE)
def test_removed_callables_stay_removed(target):
    with pytest.raises(AttributeError):
        _resolve(target)


@pytest.mark.parametrize("module_name", GONE_MODULES)
def test_removed_modules_stay_removed(module_name):
    assert importlib.util.find_spec(module_name) is None
