"""Deterministic discrete-event engine for the three-tier network.

Binds sensor nodes, one gateway tier, and one cloud tier: message
delivery under a per-mode latency model, the gateway inference queue,
per-node-per-tier anomaly histories, heuristic invocation after every
prediction, and the blank-response mechanism that lets nodes measure
round-trip inference latency.

Determinism: events execute in (timestamp, insertion sequence) order and
every random stream is derived from the scenario seed by labeled
hashing, so identical (scenario, seed) pairs replay byte-identical
traces.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import heuristics
from .energy import EnergyLedger, debit
from .model import (
    AnomalyTracker,
    ConditionLabel,
    ConfigurationError,
    InferenceMode,
    NodeState,
    SimEvent,
    SimulationError,
    new_tracker,
)
from .node import (
    CycleStep,
    InvalidTransitionError,
    LifecycleEvent,
    PropertyCommand,
    PropertyMethod,
    PROPERTY_TABLE,
    SensorNode,
)
from .oracle import ClassifierOracle, GroundTruthProcess, derive_seed, draw_ground_truth

if TYPE_CHECKING:
    from .scenario import Scenario

#: The four provisioning handshake stages, in order.
PROVISIONING_STAGES = (
    "device-discovery",
    "session-establishment",
    "configuration",
    "connection-termination",
)

#: Records a run hands to its sink at a time: enough that each batch's
#: writes are large, few enough that a batch is a small share of memory.
SINK_BATCH_RECORDS = 4_096

#: Legal inference-mode transitions (self-loops excluded): a node being
#: served on-device can only be escalated to the gateway, while gateway-
#: and cloud-served nodes can move to any tier.
MODE_TRANSITION_GRAPH: dict[InferenceMode, frozenset[InferenceMode]] = {
    InferenceMode.SENSOR: frozenset({InferenceMode.GATEWAY}),
    InferenceMode.GATEWAY: frozenset({InferenceMode.SENSOR, InferenceMode.CLOUD}),
    InferenceMode.CLOUD: frozenset({InferenceMode.SENSOR, InferenceMode.GATEWAY}),
}


@dataclass(frozen=True)
class Message:
    """One wire message between a node and a tier."""

    kind: str
    src: str
    dst: str
    send_time_ms: float
    battery_pct: float | None = None
    request_send_time_ms: float | None = None  # echoed in every response
    mode: InferenceMode | None = None  # commanded mode for mode-command


@dataclass(frozen=True)
class LatencyModel:
    """Per-mode end-to-end response latency, optionally jittered.

    The constants are end-to-end (transport plus inference) under ideal
    load; queueing delay at a busy tier adds on top. Jitter is zero-mean
    uniform with the configured half-width.
    """

    sensor_ms: float = 3.33
    gateway_ms: float = 148.15
    cloud_ms: float = 641.71
    jitter_sensor_ms: float = 0.0
    jitter_gateway_ms: float = 0.0
    jitter_cloud_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sensor_ms", "gateway_ms", "cloud_ms"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"latency {name} must be > 0")
        for mode in InferenceMode:
            if self.jitter(mode) < 0 or self.jitter(mode) >= self.constant(mode):
                raise ConfigurationError(
                    f"jitter for {mode.value} must be in [0, latency) to keep "
                    "latencies positive"
                )

    def constant(self, mode: InferenceMode) -> float:
        if mode is InferenceMode.SENSOR:
            return self.sensor_ms
        if mode is InferenceMode.GATEWAY:
            return self.gateway_ms
        return self.cloud_ms

    def jitter(self, mode: InferenceMode) -> float:
        if mode is InferenceMode.SENSOR:
            return self.jitter_sensor_ms
        if mode is InferenceMode.GATEWAY:
            return self.jitter_gateway_ms
        return self.jitter_cloud_ms

    def with_jitter_fraction(self, fraction: float) -> "LatencyModel":
        """Copy with per-mode jitter half-widths set to a fraction of each constant."""
        if not 0 <= fraction < 1:
            raise ConfigurationError(f"jitter fraction must be in [0, 1), got {fraction}")
        return replace(
            self,
            jitter_sensor_ms=fraction * self.sensor_ms,
            jitter_gateway_ms=fraction * self.gateway_ms,
            jitter_cloud_ms=fraction * self.cloud_ms,
        )


def measure_latency(response: Message, now_ms: float) -> float:
    """Round-trip latency of a response: now minus the echoed request send time."""
    if response.request_send_time_ms is None:
        raise SimulationError(f"response {response.kind} does not echo a request send time")
    latency = now_ms - response.request_send_time_ms
    if latency < 0:
        raise SimulationError(
            f"negative latency {latency} ms for response sent at "
            f"{response.request_send_time_ms} ms"
        )
    return latency


@dataclass
class Tier:
    """One offboard inference tier: a FIFO request queue and per-node histories."""

    mode: InferenceMode
    service_ms: float
    depth: int
    queue: deque[Message] = field(default_factory=deque)
    busy: bool = False
    trackers: dict[str, AnomalyTracker] = field(default_factory=dict)

    def reset(self, node_id: str) -> None:
        """Start the node's history afresh, as after a mode change."""
        self.trackers[node_id] = new_tracker(self.depth)


@dataclass
class Gateway(Tier):
    """The gateway tier, which also holds pending node commands and its device properties."""

    pending_commands: dict[str, deque[PropertyCommand]] = field(default_factory=dict)
    gateway_id: str = "gateway-0"
    provisioned_nodes: list[str] = field(default_factory=list)

    def apply_command(self, cmd: PropertyCommand) -> tuple[str, object | None]:
        """Handle a gateway-targeted property command; returns (status, value)."""
        spec = PROPERTY_TABLE.get(cmd.name)
        if spec is None or spec.target != "gateway":
            return "unknown-property", None
        if cmd.method not in spec.methods:
            return "method-not-allowed", None
        if cmd.name == "gateway_id":
            return "ok", self.gateway_id
        if cmd.name == "provisioned_nodes":
            if cmd.method is PropertyMethod.GET:
                return "ok", list(self.provisioned_nodes)
            if cmd.method is PropertyMethod.ADD:
                self.provisioned_nodes.append(str(cmd.value))
                return "ok", None
            self.provisioned_nodes = [str(v) for v in (cmd.value or [])]
            return "ok", None
        return "unknown-property", None


class Simulator:
    """Single-threaded event loop advancing all nodes and tiers."""

    def __init__(self, scenario: "Scenario") -> None:
        self.scenario = scenario
        self.params = scenario.params
        self.table = scenario.energy
        self.latency_model = scenario.latency
        self.anomaly_labels = scenario.anomaly_label_set()
        self.now_ms = 0.0  # the timestamp of the event being handled
        self._heap: list[tuple[float, int, str, str, dict]] = []
        self._seq = 0
        self.records: list[SimEvent] = []
        self.ledger = EnergyLedger()

        self.nodes: dict[str, SensorNode] = {}
        gateway, cloud = InferenceMode.GATEWAY, InferenceMode.CLOUD
        self.gateway = Gateway(gateway, scenario.gateway_service_ms,
                               self.params.history_depth(gateway))
        self.cloud = Tier(cloud, scenario.cloud_service_ms, self.params.history_depth(cloud))
        self._tiers = (self.gateway, self.cloud)
        self._truth: dict[str, GroundTruthProcess] = {}
        self._pred_step: dict[str, int] = {}
        # Per-node streams, each derived on first use from its own labels.
        self._oracles: dict[tuple[str, InferenceMode], ClassifierOracle] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._dead_reported: set[str] = set()

        for cfg in scenario.nodes:
            self._add_node(cfg)
        for cmd in scenario.commands:
            self.schedule(cmd.at_ms, "command-arrival", cmd.node_id, command=cmd.to_property_command())

    def _add_node(self, cfg) -> None:
        node = SensorNode(
            node_id=cfg.node_id,
            mode=InferenceMode.parse(cfg.initial_mode),
            tracker=new_tracker(self.params.history_depth_sensor),
            battery=cfg.make_battery(),
            sleep_period_ms=cfg.sleep_period_ms,
        )
        self.nodes[cfg.node_id] = node
        self._reset_tiers(node)
        self.gateway.pending_commands[cfg.node_id] = deque()
        self._truth[cfg.node_id] = GroundTruthProcess(
            seed=derive_seed(self.scenario.seed, cfg.node_id, "truth"),
            anomaly_probability=self.scenario.anomaly_probability,
            healthy_split=self.scenario.healthy_split,
            degraded_split=self.scenario.degraded_split,
        )
        self._pred_step[cfg.node_id] = 0
        stage_ms = self.scenario.provisioning_stage_ms
        for i in range(len(PROVISIONING_STAGES)):
            self.schedule(stage_ms * (i + 1), "provision-stage", cfg.node_id, stage=i)

    # -- scheduling -----------------------------------------------------

    def schedule(self, time_ms: float, kind: str, node_id: str, **data) -> None:
        """Queue an event; ties at equal timestamps keep insertion order."""
        if time_ms < self.now_ms:
            raise SimulationError(
                f"event {kind} scheduled at {time_ms} ms, before current time "
                f"{self.now_ms} ms"
            )
        if kind not in _HANDLERS:
            raise SimulationError(f"no handler for event kind {kind!r}")
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, node_id, data))

    def run_until(self, t_end_ms: float,
                  sink: Callable[[list[SimEvent]], object] | None = None) -> list[SimEvent]:
        """Execute all events up to and including ``t_end_ms``; returns the trace.

        With a ``sink``, the simulator keeps no trace: each time its buffer
        reaches ``SINK_BATCH_RECORDS`` records it hands them to the sink and
        starts a new buffer, and it hands over the remainder once at the
        end, so the list returned is empty. The ledger stays complete.
        """
        heap = self._heap
        while heap and heap[0][0] <= t_end_ms:
            # ``schedule`` admits no past time, so the heap pops in time order
            self.now_ms, _, kind, node_id, data = heapq.heappop(heap)
            _HANDLERS[kind](self, node_id, data)
            if sink is not None and len(self.records) >= SINK_BATCH_RECORDS:
                sink(self.records)
                self.records = []
        if t_end_ms > self.now_ms:
            self.now_ms = t_end_ms
        if sink is not None:
            sink(self.records)
            self.records = []
        return self.records

    def run(self, sink: Callable[[list[SimEvent]], object] | None = None) -> list[SimEvent]:
        return self.run_until(self.scenario.duration_ms, sink)

    # -- trace ------------------------------------------------------------

    def _record(
        self,
        node: SensorNode | None,
        kind: str,
        *,
        tracker: AnomalyTracker | None = None,
        queue_len: int | None = None,
        latency_ms: float | None = None,
        battery_pct: float | None = None,
        node_id: str | None = None,
        detail: str | None = None,
    ) -> SimEvent:
        # Positional fields in SimEvent's order; ``_value_`` skips the
        # Enum ``value`` descriptor on this per-record path.
        if node is None:
            mode = state = None
        else:
            node_id = node.node_id
            mode, state = node.mode._value_, node.state._value_
            if battery_pct is None:
                battery_pct = node.battery.level_pct
        if tracker is None:
            bits_hex = length = sigma = None
        else:
            bits = tracker.bits
            bits_hex, length, sigma = format(bits, "x"), tracker.length, bits.bit_count()
        event = SimEvent(self.now_ms, node_id or "", kind, mode, state, bits_hex,
                         length, sigma, queue_len, latency_ms, battery_pct, detail)
        self.records.append(event)
        return event

    # -- per-node streams ---------------------------------------------

    def _oracle(self, node_id: str, mode: InferenceMode) -> ClassifierOracle:
        oracle = self._oracles.get((node_id, mode))
        if oracle is None:
            oracle = self._oracles[(node_id, mode)] = ClassifierOracle.create(
                self.scenario.seed, node_id, self.scenario.profiles[mode])
        return oracle

    def _rng(self, node_id: str, label: str) -> random.Random:
        rng = self._rngs.get((node_id, label))
        if rng is None:
            rng = self._rngs[(node_id, label)] = random.Random(
                derive_seed(self.scenario.seed, node_id, label))
        return rng

    def _latency(self, node_id: str, mode: InferenceMode) -> float:
        """One response latency; only jitter draws from the node's latency stream."""
        half_width = self.latency_model.jitter(mode)
        base = self.latency_model.constant(mode)
        if half_width == 0:
            return base
        return base + self._rng(node_id, "latency").uniform(-half_width, half_width)

    # -- provisioning and lifecycle ------------------------------------

    def _on_provision_stage(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        stage = data["stage"]
        self._record(node, "provision-stage", detail=PROVISIONING_STAGES[stage])
        if stage == len(PROVISIONING_STAGES) - 1:
            self.schedule(self.now_ms, "lifecycle", node.node_id,
                          event=LifecycleEvent.PROVISIONING_COMPLETE)

    def _on_lifecycle(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        event: LifecycleEvent = data["event"]
        try:
            node.step_state(event)
        except InvalidTransitionError as err:
            self._record(node, "protocol-violation", detail=str(err))
            return
        self._record(node, event.value)
        self._after_lifecycle(node, event)

    def _after_lifecycle(self, node: SensorNode, event: LifecycleEvent) -> None:
        stage_ms = self.scenario.provisioning_stage_ms
        # The gateway auto-orchestrates the happy path to WORKING. A
        # config-reject leaves the node UNLOCKED awaiting operator input.
        if event is LifecycleEvent.PROVISIONING_COMPLETE:
            self.gateway.provisioned_nodes.append(node.node_id)
            self.schedule(self.now_ms + stage_ms, "lifecycle", node.node_id,
                          event=LifecycleEvent.PROPERTIES_UPDATED)
        elif event is LifecycleEvent.RESET_COMMAND:
            self.schedule(self.now_ms + stage_ms, "lifecycle", node.node_id,
                          event=LifecycleEvent.PROPERTIES_UPDATED)
        elif event is LifecycleEvent.PROPERTIES_UPDATED:
            self.schedule(self.now_ms + stage_ms, "lifecycle", node.node_id,
                          event=LifecycleEvent.CONFIG_CONFIRM)
        elif event is LifecycleEvent.CONFIG_CONFIRM:
            node.epoch += 1  # cycle-starts left from an earlier WORKING spell go stale
            self.schedule(self.now_ms, "cycle-start", node.node_id, epoch=node.epoch)

    # -- duty cycle -----------------------------------------------------

    def _on_cycle_start(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING or data["epoch"] != node.epoch:
            return  # idled, or left from before a reset; lifecycle events restart cycling
        if node.battery.dead:
            if node.node_id not in self._dead_reported:
                self._dead_reported.add(node.node_id)
                self._record(node, "battery-dead")
            return
        poll_due = (
            self.scenario.poll_enabled
            and node.mode is InferenceMode.SENSOR
            and (node.cycle_index + 1) % self.scenario.poll_every_cycles == 0
        )
        plan = node.plan_cycle(self.now_ms, self.table, poll_due=poll_due)
        for step in plan.steps:
            self.schedule(step.at_ms, "op", node.node_id, step=step)
        if plan.predict_at is not None:
            self.schedule(plan.predict_at, "predict-local", node.node_id)
        if plan.request_at is not None:
            self.schedule(plan.request_at, "radio-window", node.node_id)
        if plan.poll_at is not None:
            self.schedule(plan.poll_at, "poll", node.node_id)
        if plan.end_ms is not None:
            self.schedule(plan.end_ms, "cycle-start", node.node_id, epoch=node.epoch)

    def _on_op(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        step: CycleStep = data["step"]
        debit(node.battery, self.ledger, step.operation, step.energy_mj, self.now_ms, node_id)
        self._record(node, step.kind, detail=f"duration_ms={step.duration_ms}")

    # -- predictions ------------------------------------------------------

    def _next_truth(self, node_id: str) -> ConditionLabel:
        step = self._pred_step[node_id]
        self._pred_step[node_id] = step + 1
        return draw_ground_truth(self._truth[node_id], step)

    def _on_predict_local(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING:
            return
        truth = self._next_truth(node.node_id)
        label = self._oracle(node.node_id, InferenceMode.SENSOR).predict(truth)
        bit = 1 if label in self.anomaly_labels else 0
        node.tracker = heuristics.update_history(node.tracker, bit, True)
        latency = self._latency(node.node_id, InferenceMode.SENSOR)
        self._record(
            node, "predict", tracker=node.tracker, latency_ms=latency,
            detail=f"label={label.value} truth={truth.value}",
        )
        if not self.scenario.adaptive:
            return
        verdict = heuristics.sensor_heuristic(node.tracker, node.battery.level_pct, self.params)
        if verdict is not node.mode:
            self._apply_mode_change(node, verdict, origin="sensor-heuristic")

    def _apply_mode_change(self, node: SensorNode, new_mode: InferenceMode, origin: str) -> None:
        """Switch a node's mode and reset its history at every tier.

        Heuristic-driven changes must stay on the legal transition graph;
        a violation means the serving tier ran the wrong heuristic.
        """
        previous = node.mode
        if not node.set_mode(new_mode):
            return
        if origin.endswith("-heuristic") and new_mode not in MODE_TRANSITION_GRAPH[previous]:
            raise SimulationError(
                f"illegal {previous.value}->{new_mode.value} transition from {origin}"
            )
        self._reset_tiers(node)
        self._record(node, "mode-change", tracker=node.tracker, detail=origin)

    def _reset_tiers(self, node: SensorNode) -> None:
        for tier in self._tiers:
            tier.reset(node.node_id)

    # -- offboard requests ------------------------------------------------

    def _on_radio_window(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING:
            return
        self._deliver_pending_commands(node)
        if node.state is not NodeState.WORKING or node.mode is InferenceMode.SENSOR:
            return  # a delivered command idled or de-escalated the node mid-window
        request = Message(
            kind="prediction-request",
            src=node.node_id,
            dst="gateway" if node.mode is InferenceMode.GATEWAY else "cloud",
            send_time_ms=self.now_ms,
            battery_pct=node.battery.level_pct,
        )
        self._record(node, "request-send", detail=f"dst={request.dst}")
        if self.scenario.drop_probability > 0 and (
            self._rng(node.node_id, "drop").random() < self.scenario.drop_probability
        ):
            self.schedule(
                self.now_ms + self.scenario.request_timeout_ms,
                "request-timeout", node.node_id, request=request,
            )
            return
        self.schedule(self.now_ms, "tier-arrival", node.node_id, request=request)

    def _tier(self, name: str) -> Tier:
        return self.gateway if name == "gateway" else self.cloud

    def _on_tier_arrival(self, node_id: str, data: dict) -> None:
        request: Message = data["request"]
        tier = self._tier(request.dst)
        tier.queue.append(request)
        if not tier.busy:
            tier.busy = True
            self.schedule(self.now_ms + tier.service_ms, "tier-complete",
                          request.src, tier=request.dst)

    def _on_tier_complete(self, node_id: str, data: dict) -> None:
        tier = self._tier(data["tier"])
        request = tier.queue.popleft()
        self._handle_prediction(tier, request)
        if tier.queue:
            self.schedule(self.now_ms + tier.service_ms, "tier-complete",
                          tier.queue[0].src, tier=data["tier"])
        else:
            tier.busy = False

    def _handle_prediction(self, tier: Tier, request: Message) -> None:
        """Serve one queued request: predict, update history, run the heuristic."""
        node = self.nodes.get(request.src)
        if node is None:
            self._record(None, "request-dropped", node_id=request.src,
                         detail="unknown node")
            return
        queue_len = len(tier.queue)
        truth = self._next_truth(node.node_id)
        label = self._oracle(node.node_id, tier.mode).predict(truth)
        bit = 1 if label in self.anomaly_labels else 0
        tracker = heuristics.update_history(tier.trackers[node.node_id], bit, True)
        tier.trackers[node.node_id] = tracker
        self._record(
            node, "predict", tracker=tracker,
            queue_len=queue_len if tier.mode is InferenceMode.GATEWAY else None,
            battery_pct=request.battery_pct,
            detail=f"tier={tier.mode.value} label={label.value} truth={truth.value}",
        )
        if self.scenario.adaptive:
            if tier.mode is InferenceMode.GATEWAY:
                verdict = heuristics.gateway_heuristic(
                    tracker, request.battery_pct, queue_len, self.params
                )
            else:
                verdict = heuristics.cloud_heuristic(tracker, request.battery_pct, self.params)
        else:
            verdict = tier.mode
        if verdict is tier.mode:
            response = Message(
                kind="blank-response", src=request.dst, dst=node.node_id,
                send_time_ms=self.now_ms,
                request_send_time_ms=request.send_time_ms,
            )
        else:
            response = Message(
                kind="mode-command", src=request.dst, dst=node.node_id,
                send_time_ms=self.now_ms,
                request_send_time_ms=request.send_time_ms, mode=verdict,
            )
        delay = self._latency(node.node_id, tier.mode)
        self.schedule(self.now_ms + delay, "response-arrival", node.node_id,
                      response=response, origin=tier.mode)

    def _on_response_arrival(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        response: Message = data["response"]
        origin: InferenceMode = data["origin"]
        latency = measure_latency(response, self.now_ms)
        if response.kind == "blank-response":
            self._record(node, "response-blank", latency_ms=latency,
                         detail=f"origin={origin.value}")
            return
        self._record(node, "mode-command", latency_ms=latency,
                     detail=f"origin={origin.value} mode={response.mode.value}")
        self._apply_mode_change(node, response.mode,
                                origin=f"{origin.value}-heuristic")

    def _on_request_timeout(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        self._record(node, "request-timeout", detail="no response before timeout")

    # -- commands -----------------------------------------------------

    def _on_command_arrival(self, node_id: str, data: dict) -> None:
        """A scenario command reaches the gateway.

        Gateway-targeted properties apply on the spot. Node-targeted
        commands wait in the gateway's per-node outbox until the node's
        radio is reachable: at the next command poll for an on-device
        node, at the next transmit window otherwise. Nodes outside
        WORKING keep their radio listening, so delivery is immediate.
        """
        cmd: PropertyCommand = data["command"]
        spec = PROPERTY_TABLE.get(cmd.name)
        if spec is not None and spec.target == "gateway":
            status, value = self.gateway.apply_command(cmd)
            self._record(None, "property-command", node_id=cmd.node_id,
                         detail=_command_detail(cmd, status, value))
            return
        node = self.nodes.get(cmd.node_id)
        if node is None:
            self._record(None, "command-dropped", node_id=cmd.node_id,
                         detail="command for unknown node")
            return
        self.gateway.pending_commands[cmd.node_id].append(cmd)
        self._record(node, "command-queued", detail=f"{cmd.method.value} {cmd.name}")
        if node.state is not NodeState.WORKING:
            self._deliver_pending_commands(node)

    def _deliver_pending_commands(self, node: SensorNode) -> None:
        pending = self.gateway.pending_commands[node.node_id]
        while pending:
            cmd = pending.popleft()
            before = node.mode
            response = node.apply_command(cmd)
            is_state_step = cmd.name == "state" and response.ok
            if is_state_step:
                # the lifecycle row leads so state-machine triples read
                # cleanly off consecutive trace rows
                event: LifecycleEvent = response.value  # type: ignore[assignment]
                self._record(node, event.value, detail="via SET state")
            elif cmd.name == "state" and response.status == "protocol-violation":
                self._record(node, "protocol-violation",
                             detail=f"SET state {cmd.value} has no edge from "
                                    f"{node.state.value}")
            self._record(node, "property-command",
                         detail=_command_detail(cmd, response.status, response.value))
            if node.mode is not before:
                # the SET already reset the node tracker; mirror it tier-side
                self._reset_tiers(node)
                self._record(node, "mode-change", tracker=node.tracker, detail="operator")
            if is_state_step:
                self._after_lifecycle(node, event)

    # -- polling ------------------------------------------------------

    def _on_poll(self, node_id: str, data: dict) -> None:
        node = self.nodes[node_id]
        pending = self.gateway.pending_commands[node.node_id]
        radio = self.table.radio_tx
        if pending:
            duration = radio.duration_ms
            debit(node.battery, self.ledger, "radio_poll", radio.energy_mj,
                  self.now_ms, node_id)
            self._record(node, "poll", detail=f"commands={len(pending)}")
            self._deliver_pending_commands(node)
        else:
            fraction = self.scenario.empty_poll_fraction
            duration = radio.duration_ms * fraction
            debit(node.battery, self.ledger, "radio_poll_empty", radio.energy_mj * fraction,
                  self.now_ms, node_id)
            self._record(node, "poll-empty")
        if node.state is NodeState.WORKING:
            self.schedule(self.now_ms + duration, "cycle-start", node.node_id,
                          epoch=node.epoch)


def _command_detail(cmd: PropertyCommand, status: str, value: object | None) -> str:
    text = f"{cmd.method.value} {cmd.name} status={status}"
    if value is not None:
        value = getattr(value, "value", value)  # enums print their wire value
        text += f" value={value}"
    return text


#: Event kind -> handler, derived once from the ``_on_*`` methods; each is
#: called unbound as ``handler(simulator, node_id, data)``.
_HANDLERS = {
    name[len("_on_"):].replace("_", "-"): handler
    for name, handler in vars(Simulator).items() if name.startswith("_on_")
}
