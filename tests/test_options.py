"""The settable options of the deployment and client path, pinned by name.

``LIDCTestbed`` → ``ComputeOverlay`` → ``LIDCCluster`` → ``Gateway`` /
``FileServer`` → ``LIDCClient``, and the genomics, data-loading and
simulation pieces under them, are configured through the parameters below
and nothing else.  Every value here has a setter somewhere in the tree; a
value that only ever takes its default is a module constant instead.  A new
option on this path therefore shows up as an edit to :data:`OPTIONS`.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

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
    "repro.core.client:LIDCClient.submit": ("request", "unique", "fetch_result"),
    "repro.core.client:LIDCClient.submit_many": ("requests", "fetch_result"),
    "repro.core.client:LIDCClient.poll_status": ("job_id", "lifetime_s", "status_name"),
    "repro.core.client:LIDCClient.wait_for_completion": ("job_id", "status_name", "_handle"),
    "repro.core.client:LIDCClient.retrieve_result": ("result_name", "fetch_payload"),
    "repro.core.client:JobHandle": ("client", "request", "done", "unique", "fetch_result"),
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
    "repro.genomics.sra:SraRegistry.register_synthetic": (
        "accession", "genome_type", "read_count", "read_length", "organism",
    ),
    "repro.genomics.sequences:SequenceGenerator.random_genome": ("length", "name"),
    "repro.datalake.loader:DataLoadingTool.load_synthetic_datasets": ("lake",),
    "repro.sim.engine:Environment": (),
    # The simulated Kubernetes: only what the gateway and LIDCCluster set.
    "repro.cluster.cluster:ClusterSpec": ("name", "region", "node_count", "node_cpu", "node_memory"),
    "repro.cluster.cluster:Cluster.add_node": ("name", "cpu", "memory"),
    "repro.cluster.cluster:Cluster.create_job": ("template", "name", "labels"),
    "repro.cluster.cluster:Cluster.create_deployment": ("template", "name"),
    "repro.cluster.cluster:Cluster.create_service": ("name", "selector", "service_type"),
    "repro.cluster.cluster:Cluster.create_pvc": ("name",),
    "repro.cluster.cluster:Cluster.job": ("name",),
    "repro.cluster.node:Node": ("metadata", "capacity"),
    "repro.cluster.node:Node.build": ("name", "cpu", "memory"),
    "repro.cluster.objects:ObjectMeta": ("name", "namespace", "labels"),
    "repro.cluster.pod:PodSpec": ("containers",),
    "repro.cluster.pod:Container": ("name", "image", "resources", "workload", "startup_delay_s"),
    "repro.cluster.pod:ResourceRequirements": ("requests",),
    "repro.cluster.pod:ResourceRequirements.of": ("cpu", "memory"),
    "repro.cluster.job:Job": ("metadata", "template", "completion"),
    "repro.cluster.job:JobStatus": ("condition", "message"),
    "repro.cluster.job:JobController.create_job": ("template", "name", "labels"),
    "repro.cluster.deployment:Deployment": ("metadata", "template", "selector"),
    "repro.cluster.deployment:DeploymentController.create_deployment": ("template", "name"),
    "repro.cluster.service:Service": (
        "metadata", "selector", "service_type", "cluster_ip", "node_port",
    ),
    "repro.cluster.service:Endpoints": ("addresses",),
    "repro.cluster.service:ServiceController": ("api",),
    "repro.cluster.service:ServiceController.create_service": ("name", "selector", "service_type"),
    "repro.cluster.dns:DnsRecord": ("cluster_ip", "endpoints"),
    "repro.cluster.storage:NFSServer": ("name",),
    "repro.cluster.storage:StorageController": ("api", "server"),
    "repro.cluster.storage:StorageController.create_pvc": ("name",),
    "repro.cluster.storage:PersistentVolume": ("metadata", "server", "base_path"),
    "repro.cluster.storage:PersistentVolumeClaim": ("metadata",),
    "repro.datalake.loader:DataLoadingTool.create_datalake": ("pvc_name", "lake_name"),
    # The NDN endpoints: a local face hands packets straight over, and a
    # producer that answers later does so through its app face.
    "repro.ndn.forwarder:Forwarder.attach_producer": ("prefix", "handler"),
    "repro.ndn.forwarder:Forwarder.abort_pending": ("predicate",),
    "repro.ndn.shard:ShardedForwarder.attach_producer": ("prefix", "handler"),
    "repro.ndn.face:LocalFace": ("env", "owner", "label"),
    "repro.ndn.client:Consumer": ("env", "forwarder", "name", "rng"),
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
    # The simulated Kubernetes keeps one pod per Job, no node states, no
    # event log, no deletion and no scaling verb.
    "repro.cluster.job:JobSpec",
    "repro.cluster.job:Job.duration",
    "repro.cluster.job:JobController.pods_for",
    "repro.cluster.node:NodeStatus",
    "repro.cluster.node:Node.cordon",
    "repro.cluster.node:Node.uncordon",
    "repro.cluster.node:Node.mark_not_ready",
    "repro.cluster.node:Node.is_schedulable",
    "repro.cluster.node:Node.matches_selector",
    "repro.cluster.kubelet:Kubelet.node_failure",
    "repro.cluster.cluster:Cluster.fail_node",
    "repro.cluster.cluster:Cluster.kubelet",
    "repro.cluster.cluster:Cluster.pods",
    "repro.cluster.cluster:Cluster.service",
    "repro.cluster.apiserver:ClusterEvent",
    "repro.cluster.apiserver:EventType.DELETED",
    "repro.cluster.apiserver:ApiServer.record_event",
    "repro.cluster.apiserver:ApiServer.events_for",
    "repro.cluster.apiserver:ApiServer.delete",
    "repro.cluster.apiserver:ApiServer.update",
    "repro.cluster.apiserver:ApiServer.exists",
    "repro.cluster.apiserver:ApiServer.count",
    "repro.cluster.apiserver:ApiServer.create_namespace",
    "repro.cluster.apiserver:ApiServer.has_namespace",
    "repro.cluster.deployment:DeploymentController.scale",
    "repro.cluster.service:ServicePort",
    "repro.cluster.service:Service.has_ready_endpoints",
    "repro.cluster.service:ServiceController.resolve_node_port",
    "repro.cluster.dns:ClusterDNS.try_resolve",
    "repro.cluster.dns:ClusterDNS.qualify",
    "repro.cluster.dns:DnsRecord.is_resolvable",
    "repro.cluster.objects:ObjectMeta.has_labels",
    "repro.cluster.objects:LabelSelector.of",
    "repro.cluster.objects:LabelSelector.empty",
    "repro.cluster.pod:PodPhase.UNKNOWN",
    "repro.cluster.pod:Pod.runtime",
    "repro.cluster.pod:Pod.namespace",
    "repro.cluster.service:Service.name",
    "repro.cluster.storage:PersistentVolume.name",
    "repro.cluster.storage:PersistentVolume.is_bound",
    "repro.cluster.pod:WorkloadResult.succeeded",
    "repro.cluster.scheduler:Scheduler.utilization",
    "repro.cluster.quantity:Quantity.parse",
    "repro.cluster.quantity:Quantity.scaled",
    "repro.cluster.storage:StoredObject.is_placeholder",
    "repro.cluster.storage:NFSServer.delete",
    "repro.cluster.storage:NFSServer.exists",
    "repro.cluster.storage:NFSServer.listdir",
    "repro.cluster.storage:PersistentVolumeClaim.stat",
    "repro.cluster.storage:PersistentVolumeClaim.exists",
    "repro.cluster.storage:PersistentVolumeClaim.listdir",
    "repro.cluster.storage:PersistentVolumeClaim.used_bytes",
    "repro.datalake.repo:DataLake.unpublish",
    "repro.datalake.catalog:DataCatalog.remove",
    "repro.core.baseline:CentralizedController.register_cluster",
    "repro.core.baseline:CentralizedController.deregister_cluster",
    "repro.core.baseline:CentralizedController.recover",
    "repro.ndn.strategy:StrategyChoiceTable.unset_strategy",
    "repro.ndn.routing:RoutingDaemon.shutdown",
    "repro.genomics.reference:ReferenceDatabase.contains_sequence",
    "repro.genomics.sra:SraRegistry.by_genome_type",
    "repro.genomics.sra:SraRegistry.validate",
    # Job sessions end by their protocol: no cancel, no whole-job deadline,
    # no delayed start, and no engine interrupt behind them.
    "repro.core.client:JobHandle.cancel",
    "repro.core.client:JobHandle.finished",
    "repro.core.client:JobHandle.result",
    "repro.core.client:SubmissionResult.ack_latency",
    "repro.core.client:LIDCClient._deadline_expired",
    "repro.exceptions:ProcessInterrupt",
    "repro.sim.engine:_Interruption",
    "repro.sim.engine:Process.interrupt",
    "repro.sim.engine:Process.target",
    "repro.sim.engine:Environment.active_process",
    "repro.sim.engine:Timeout.cancel",
    "repro.sim.engine:Event.trigger",
    "repro.sim.engine:Event.processed",
    # Only tests called these.
    "repro.datalake.fileserver:FileServer.invalidate",
    "repro.ndn.client:Consumer.fetch",
    "repro.core.cluster_endpoint:DATALAKE_SIZE",
    "repro.chaos.spec:ChaosSpec.event_count",
    "repro.core.caching:ResultCache.hit_ratio",
    "repro.ndn.cs:ContentStore.hit_ratio",
    "repro.core.cluster_endpoint:LIDCCluster.datalake_dns_name",
    "repro.core.jobs:JobTracker.completed",
    "repro.core.spec:JobRecord.turnaround",
    "repro.datalake.repo:DataLake.dataset_id_from_name",
    "repro.datalake.repo:DataLake.read_manifest",
    "repro.datalake.repo:DataLake.size_of",
    "repro.genomics.blast:BlastResult.report_text",
    "repro.genomics.reference:KmerIndex.distinct_kmers",
    "repro.genomics.reference:KmerIndex.total_positions",
    "repro.genomics.reference:KmerIndex.contig_length",
    "repro.genomics.runtime_model:BlastRuntimeModel.max_relative_error",
    "repro.genomics.runtime_model:BlastRuntimeModel.reproduce_table1",
    "repro.ndn.fib:FibEntry.best",
    "repro.ndn.fib:Fib.exact",
    "repro.ndn.fib:Fib.prefixes",
    "repro.ndn.name:Name.components",
    "repro.ndn.name:Name.starts_with",
    "repro.ndn.name:Name.common_prefix_length",
    "repro.ndn.packet:WirePacket.is_nack",
    # A name parses and formats its URI from its bytes.
    "repro.ndn.name:Component.from_escaped",
    "repro.ndn.name:Component.escaped",
    "repro.cluster.scheduler:Scheduler.unschedulable_count",
    "repro.ndn.routing:RoutingDaemon.known_prefixes",
    # No product code sets or reads these.
    "repro.ndn.packet:WirePacket.decode_hook",
    "repro.core.baseline:CentralizedController.placement_counts",
    "repro.analysis.results:ResultTable.column_values",
    "repro.analysis.results:ResultTable.print",
    # The forwarding plane handles one packet type, the wire view: a Nack
    # exists only as a view, the per-hop copy is a byte patch of one, and
    # faces carry nothing else.
    "repro.ndn.packet:Nack",
    "repro.ndn.packet:Interest.nack",
    "repro.ndn.packet:Interest.with_decremented_hop_limit",
    "repro.ndn.packet:WirePacket.matches_data",
    "repro.ndn.packet:WirePacket.encode",
    "repro.ndn.packet:WirePacket._header",
    "repro.ndn.packet:InterestLike",
    "repro.ndn.packet:DataLike",
    "repro.ndn.face:AnyPacket",
    "repro.ndn.face:Packet",
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


REPO = pathlib.Path(__file__).resolve().parents[1]

#: Packages the product-caller gate scans, each without its subpackages:
#: all of ``src/repro``.  The static analyzer under ``analysis/lint`` is
#: left to its own RL012 gate.
SCANNED_PACKAGES = ("analysis", "chaos", "cluster", "core", "datalake", "genomics", "ndn", "sim",
                    "workload")

#: ``Class.method`` -> the test oracle that reads it.  These read-only
#: accessors have no product caller; each stays because a test checks the
#: program against it.
ORACLE_ACCESSORS = {
    "NFSServer.used_bytes": "tests/cluster/test_services_storage_cluster.py: "
                            "test_nfs_running_total_agrees_with_a_fresh_sum",
    "NFSServer.object_count": "tests/cluster/test_services_storage_cluster.py: "
                              "test_nfs_running_total_agrees_with_a_fresh_sum",
    "Process.is_alive": "tests/ndn/test_exchange_lifetime.py: no exchange process outlives its cycle",
    "Tracer.filter": "tests/sim/test_rng_metrics_trace.py and tests/chaos: trace queries",
    "MetricsRegistry.snapshot": "tests/ndn/test_forwarding.py, tests/ndn/test_sharded_forwarder.py "
                                "and tests/core/test_gateway_endpoint.py: counter ledgers",
    "ShardedForwarder.pit_entries": "tests/integration/test_shard_soak.py and "
                                    "tests/chaos/test_chaos_soak.py: no PIT entry leaks",
    "ShardedForwarder.boundary_stats": "tests/ndn/test_shard_rebalance.py and "
                                       "tests/integration/test_shard_soak.py: exact byte ledgers",
    "WirePacket.is_decoded": "tests/ndn/test_hot_cache_coherence.py and "
                             "tests/integration/test_segment_buffers.py: no decode in transit",
    "ComputeOverlay.link_up": "tests/chaos/test_chaos_driver.py and "
                              "tests/chaos/test_chaos_soak.py: faults heal",
    "ComputeOverlay.reachable_compute_origins": "tests/ndn/test_routing_mesh.py and "
                                                "tests/sim/test_topology.py: routes converge",
    "RoutingDaemon.rib_size": "tests/ndn/test_routing_mesh.py: withdrawals empty the RIB",
    # Not an oracle: signature checking has no caller until ROADMAP item 4c
    # decides whether consumers verify what they receive.
    "Data.verify": "exempt until ROADMAP item 4c",
}


def _product_names() -> tuple:
    """The bare names and the attribute names that ``src/``,
    ``benchmarks/`` and ``examples/`` mention in code."""
    names, attributes = set(), set()
    for tree in ("src", "benchmarks", "examples"):
        for path in (REPO / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def test_every_public_callable_has_a_product_caller():
    """A public function or method of a scanned package is named somewhere in
    ``src/``, ``benchmarks/`` or ``examples/`` besides its own ``def``; one
    that only tests call does not belong to the product.  A method counts
    as called only through an attribute (``obj.name``): a local function of
    the same name does not keep it alive."""
    names, attributes = _product_names()
    modules = sorted(path for package in SCANNED_PACKAGES
                     for path in (REPO / "src" / "repro" / package).glob("*.py"))
    modules += sorted((REPO / "src" / "repro").glob("*.py"))
    assert len(modules) > len(SCANNED_PACKAGES)
    orphans = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, names | attributes)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item, attributes) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualname, fn, used in defs:
                if fn.name.startswith("_") or qualname in ORACLE_ACCESSORS:
                    continue
                if fn.name not in used:
                    orphans.append(f"{path.relative_to(REPO)}:{qualname}")
    assert orphans == []
