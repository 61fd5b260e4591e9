"""Deterministic discrete-event engine for the three-tier network.

Binds sensor nodes, one gateway tier, and one cloud tier: request and
response events under a per-mode latency model, the gateway inference
queue, per-node-per-tier anomaly histories, heuristic invocation after
every prediction, and the blank-response mechanism that lets nodes
measure round-trip inference latency.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import heuristics, summary
from .energy import EnergyLedger, debit
from .model import (
    AnomalyTracker,
    ConditionLabel,
    InferenceMode,
    NodeState,
    SimEvent,
    SimulationError,
    new_tracker,
)
from .node import (
    LifecycleEvent,
    PropertyCommand,
    PropertyMethod,
    PROPERTY_TABLE,
    SensorNode,
    _gate,
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

#: Legal inference-mode transitions (self-loops excluded): a node being
#: served on-device can only be escalated to the gateway, while gateway-
#: and cloud-served nodes can move to any tier.
MODE_TRANSITION_GRAPH: dict[InferenceMode, frozenset[InferenceMode]] = {
    InferenceMode.SENSOR: frozenset({InferenceMode.GATEWAY}),
    InferenceMode.GATEWAY: frozenset({InferenceMode.SENSOR, InferenceMode.CLOUD}),
    InferenceMode.CLOUD: frozenset({InferenceMode.SENSOR, InferenceMode.GATEWAY}),
}


@dataclass
class Tier:
    """One inference location: its timing, and each node's anomaly window and oracle.

    The depth, latency constant, jitter half-width and service time are
    read once from the scenario. Only the gateway and the cloud serve
    requests, from a FIFO queue; the sensor predicts in place.
    """

    mode: InferenceMode
    depth: int
    latency_ms: float
    jitter_ms: float
    service_ms: float
    # each queued request is (node_id, sent_ms, battery_pct)
    queue: deque[tuple[str, float, float]] = field(default_factory=deque)
    trackers: dict[str, AnomalyTracker] = field(default_factory=dict)
    # each node's prediction stream at this tier, made on its first prediction
    oracles: dict[str, ClassifierOracle] = field(default_factory=dict)


#: The gateway's id, answered to ``GET gateway_id``.
GATEWAY_ID = "gateway-0"


class Simulator:
    """Single-threaded event loop advancing all nodes and tiers."""

    def __init__(self, scenario: "Scenario") -> None:
        self.scenario = scenario
        self.params = scenario.params
        self.table = scenario.energy
        self.anomaly_labels = frozenset(map(ConditionLabel, scenario.anomaly_labels))
        self.now_ms = 0.0  # the timestamp of the event being handled
        self._heap: list[tuple[float, int, str, str, object]] = []
        self._seq = 0
        self.records: list[SimEvent] = []
        self.ledger = EnergyLedger()

        self.nodes: dict[str, SensorNode] = {}
        # The gateway also relays commands: a node's outbox is made when the
        # first command for it arrives.
        self.pending_commands: dict[str, deque[PropertyCommand]] = {}
        self.provisioned_nodes: list[str] = []
        params, latency = self.params, scenario.latency
        self.gateway = Tier(InferenceMode.GATEWAY, params.history_depth_gateway,
                            latency.gateway_ms, latency.jitter_gateway_ms,
                            scenario.gateway_service_ms)
        self.tiers: dict[InferenceMode, Tier] = {
            InferenceMode.SENSOR: Tier(InferenceMode.SENSOR, params.history_depth_sensor,
                                       latency.sensor_ms, latency.jitter_sensor_ms, 0.0),
            InferenceMode.GATEWAY: self.gateway,
            InferenceMode.CLOUD: Tier(InferenceMode.CLOUD, params.history_depth_cloud,
                                      latency.cloud_ms, latency.jitter_cloud_ms,
                                      scenario.cloud_service_ms),
        }
        # Per-node streams, each derived on first use from its own labels:
        # a node's truth process and prediction count on its first prediction.
        self._truth: dict[str, GroundTruthProcess] = {}
        self._pred_step: dict[str, int] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._dead_reported: set[str] = set()

        for cfg in scenario.nodes:
            self._add_node(cfg)
        for cmd in scenario.commands:
            self.schedule(cmd.at_ms, "command-arrival", cmd.node_id, cmd)

    def _add_node(self, cfg) -> None:
        node = SensorNode(
            node_id=cfg.node_id,
            mode=InferenceMode(cfg.initial_mode),
            battery=cfg.make_battery(),
            sleep_period_ms=cfg.sleep_period_ms,
        )
        self.nodes[cfg.node_id] = node
        for tier in self.tiers.values():  # one shared empty window per depth
            tier.trackers[cfg.node_id] = new_tracker(tier.depth)
        stage_ms = self.scenario.provisioning_stage_ms
        for i in range(len(PROVISIONING_STAGES)):
            self.schedule(stage_ms * (i + 1), "provision-stage", cfg.node_id, i)

    # -- scheduling -----------------------------------------------------

    def schedule(self, time_ms: float, kind: str, node_id: str, data: object = None) -> None:
        """Queue an event; ties at equal timestamps keep insertion order.

        ``data`` is the one payload its handler takes: the step of an
        ``op``, the epoch of a ``cycle-start``, the stage index, lifecycle
        event, command or tier, ``(tier, battery_pct)`` for a
        ``tier-arrival``, ``(sent_ms, origin, verdict)`` for a
        ``response-arrival``, and None for the rest. A time before the
        current one or NaN, or a kind with no handler, raises SimulationError.
        """
        if not time_ms >= self.now_ms:  # also catches a NaN time
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

        With a ``sink``, the simulator keeps no trace: it hands the sink
        one write chunk at a time, ``summary.WRITE_CHUNK_ROWS`` records,
        and the remainder once at the end, so the list returned is empty.
        Every batch but the last is exactly that long. The ledger stays
        complete.
        """
        heap = self._heap
        rows = summary.WRITE_CHUNK_ROWS  # the writers' row budget is the batch size
        while heap and heap[0][0] <= t_end_ms:
            # ``schedule`` admits no past time, so the heap pops in time order
            self.now_ms, _, kind, node_id, data = heapq.heappop(heap)
            _HANDLERS[kind](self, node_id, data)
            # an event can record several rows; those past a chunk carry over
            while sink is not None and len(self.records) >= rows:
                batch, self.records = self.records[:rows], self.records[rows:]
                sink(batch)
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

    def _rng(self, node_id: str, label: str) -> random.Random:
        rng = self._rngs.get((node_id, label))
        if rng is None:
            rng = self._rngs[(node_id, label)] = random.Random(
                derive_seed(self.scenario.seed, node_id, label))
        return rng

    def _latency(self, tier: Tier, node_id: str) -> float:
        """One response latency; only jitter draws from the node's latency stream."""
        half_width = tier.jitter_ms
        if half_width == 0:
            return tier.latency_ms
        return tier.latency_ms + self._rng(node_id, "latency").uniform(-half_width, half_width)

    # -- provisioning and lifecycle ------------------------------------

    def _on_provision_stage(self, node_id: str, stage: int) -> None:
        node = self.nodes[node_id]
        self._record(node, "provision-stage", detail=PROVISIONING_STAGES[stage])
        if stage == len(PROVISIONING_STAGES) - 1:
            self.schedule(self.now_ms, "lifecycle", node.node_id,
                          LifecycleEvent.PROVISIONING_COMPLETE)

    def _on_lifecycle(self, node_id: str, event: LifecycleEvent) -> None:
        node = self.nodes[node_id]
        if node.step_state(event) is None:
            self._record(node, "protocol-violation",
                         detail=f"event {event.value} not valid in state {node.state.value}")
            return
        self._record(node, event.value)
        self._after_lifecycle(node, event)

    def _after_lifecycle(self, node: SensorNode, event: LifecycleEvent) -> None:
        stage_ms = self.scenario.provisioning_stage_ms
        # The gateway auto-orchestrates the happy path to WORKING. A
        # config-reject leaves the node UNLOCKED awaiting operator input.
        if event is LifecycleEvent.PROVISIONING_COMPLETE:
            self.provisioned_nodes.append(node.node_id)
        if event in (LifecycleEvent.PROVISIONING_COMPLETE, LifecycleEvent.RESET_COMMAND):
            self.schedule(self.now_ms + stage_ms, "lifecycle", node.node_id,
                          LifecycleEvent.PROPERTIES_UPDATED)
        elif event is LifecycleEvent.PROPERTIES_UPDATED:
            self.schedule(self.now_ms + stage_ms, "lifecycle", node.node_id,
                          LifecycleEvent.CONFIG_CONFIRM)
        elif event is LifecycleEvent.CONFIG_CONFIRM:
            node.epoch += 1  # cycle-starts left from an earlier WORKING spell go stale
            self.schedule(self.now_ms, "cycle-start", node.node_id, node.epoch)

    # -- duty cycle -----------------------------------------------------

    def _on_cycle_start(self, node_id: str, epoch: int) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING or epoch != node.epoch:
            return  # idled, or left from before a reset; lifecycle events restart cycling
        if node.battery.dead:
            if node_id not in self._dead_reported:
                self._dead_reported.add(node_id)
                self._record(node, "battery-dead")
            return
        poll_due = (
            self.scenario.poll_enabled
            and node.mode is InferenceMode.SENSOR
            and (node.cycle_index + 1) % self.scenario.poll_every_cycles == 0
        )
        at = self.now_ms
        for step in node.plan_cycle(self.table):
            self.schedule(at, "op", node_id, step)
            start, at = at, at + step[1]
        if node.mode is InferenceMode.SENSOR:
            self.schedule(at, "predict-local", node_id)
            if poll_due:  # the poll's duration, known at poll time, ends the cycle
                self.schedule(at, "poll", node_id)
                return
        else:  # the request leaves when the radio starts transmitting
            self.schedule(start, "radio-window", node_id)
        self.schedule(at, "cycle-start", node_id, epoch)

    def _on_op(self, node_id: str, step: tuple[str, float, str, float, str]) -> None:
        node = self.nodes[node_id]
        kind, _, operation, energy_mj, detail = step
        debit(node.battery, self.ledger, operation, energy_mj, self.now_ms, node_id)
        self._record(node, kind, detail=detail)

    # -- predictions ------------------------------------------------------

    def _predict(self, tier: Tier, node_id: str
                 ) -> tuple[AnomalyTracker, ConditionLabel, ConditionLabel]:
        """One prediction at ``tier``: ground truth, the tier's label, its window's new bit."""
        step = self._pred_step.get(node_id)
        if step is None:
            step, scenario = 0, self.scenario
            self._truth[node_id] = GroundTruthProcess(
                derive_seed(scenario.seed, node_id, "truth"), scenario.anomaly_probability,
                scenario.healthy_split, scenario.degraded_split)
        self._pred_step[node_id] = step + 1
        truth = draw_ground_truth(self._truth[node_id], step)
        oracle = tier.oracles.get(node_id)
        if oracle is None:
            oracle = tier.oracles[node_id] = ClassifierOracle.create(
                self.scenario.seed, node_id, self.scenario.profiles[tier.mode])
        label = oracle.predict(truth)
        bit = 1 if label in self.anomaly_labels else 0
        tracker = tier.trackers[node_id] = heuristics.update_history(
            tier.trackers[node_id], bit, True)
        return tracker, label, truth

    def _on_predict_local(self, node_id: str, data: None) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING:
            return
        tier = self.tiers[InferenceMode.SENSOR]
        tracker, label, truth = self._predict(tier, node_id)
        self._record(
            node, "predict", tracker=tracker, latency_ms=self._latency(tier, node_id),
            detail=f"label={label._value_} truth={truth._value_}",
        )
        if not self.scenario.adaptive:
            return
        verdict = heuristics.sensor_heuristic(tracker, node.battery.level_pct, self.params)
        if verdict is not node.mode:
            self._change_mode(node, verdict, "sensor-heuristic")

    def _change_mode(self, node: SensorNode, mode: InferenceMode, origin: str) -> None:
        """Move a node to ``mode``, empty its window at every tier, record the change.

        A heuristic's verdict must stay on the legal transition graph; a
        violation means the serving tier ran the wrong heuristic. An
        operator's SET has set the mode already and may pick any tier.
        """
        previous, node.mode = node.mode, mode
        if origin.endswith("-heuristic") and mode not in MODE_TRANSITION_GRAPH[previous]:
            raise SimulationError(
                f"illegal {previous.value}->{mode.value} transition from {origin}"
            )
        node_id = node.node_id
        for tier in self.tiers.values():
            tier.trackers[node_id] = new_tracker(tier.depth)
        self._record(node, "mode-change", tracker=self.tiers[mode].trackers[node_id],
                     detail=origin)

    # -- offboard requests ------------------------------------------------

    def _on_radio_window(self, node_id: str, data: None) -> None:
        node = self.nodes[node_id]
        if node.state is not NodeState.WORKING:
            return
        self._deliver_pending_commands(node)
        if node.state is not NodeState.WORKING or node.mode is InferenceMode.SENSOR:
            return  # a delivered command idled or de-escalated the node mid-window
        tier = self.tiers[node.mode]
        battery_pct = node.battery.level_pct
        self._record(node, "request-send", battery_pct=battery_pct,
                     detail="dst=gateway" if tier is self.gateway else "dst=cloud")
        if self.scenario.drop_probability > 0 and (
            self._rng(node_id, "drop").random() < self.scenario.drop_probability
        ):
            self.schedule(self.now_ms + self.scenario.request_timeout_ms,
                          "request-timeout", node_id)
            return
        # the request reaches its tier the instant it is sent
        self.schedule(self.now_ms, "tier-arrival", node_id, (tier, battery_pct))

    def _on_tier_arrival(self, node_id: str, data: tuple[Tier, float]) -> None:
        tier, battery_pct = data
        tier.queue.append((node_id, self.now_ms, battery_pct))
        if len(tier.queue) == 1:  # the tier was idle: it serves while its queue is not empty
            self.schedule(self.now_ms + tier.service_ms, "tier-complete", node_id, tier)

    def _on_tier_complete(self, node_id: str, tier: Tier) -> None:
        self._handle_prediction(tier, *tier.queue.popleft())
        if tier.queue:
            self.schedule(self.now_ms + tier.service_ms, "tier-complete", tier.queue[0][0], tier)

    def _handle_prediction(self, tier: Tier, node_id: str, sent_ms: float,
                           battery_pct: float) -> None:
        """Serve one queued request: predict, update history, run the heuristic."""
        node = self.nodes[node_id]
        queue_len = len(tier.queue)
        tracker, label, truth = self._predict(tier, node_id)
        self._record(
            node, "predict", tracker=tracker,
            queue_len=queue_len if tier is self.gateway else None,
            battery_pct=battery_pct,
            detail=f"tier={tier.mode._value_} label={label._value_} truth={truth._value_}",
        )
        if not self.scenario.adaptive:
            verdict = tier.mode
        elif tier is self.gateway:
            verdict = heuristics.gateway_heuristic(tracker, battery_pct, queue_len, self.params)
        else:
            verdict = heuristics.cloud_heuristic(tracker, battery_pct, self.params)
        self.schedule(self.now_ms + self._latency(tier, node_id), "response-arrival", node_id,
                      (sent_ms, tier.mode, verdict))

    def _on_response_arrival(self, node_id: str,
                             data: tuple[float, InferenceMode, InferenceMode]) -> None:
        """A tier's answer reaches the node: blank when the tier keeps it, else a command."""
        node = self.nodes[node_id]
        sent_ms, origin, verdict = data
        latency = self.now_ms - sent_ms
        if verdict is origin:
            self._record(node, "response-blank", latency_ms=latency,
                         detail=f"origin={origin.value}")
            return
        self._record(node, "mode-command", latency_ms=latency,
                     detail=f"origin={origin.value} mode={verdict.value}")
        if node.mode is origin:  # a tier the node has left no longer decides for it
            self._change_mode(node, verdict, f"{origin.value}-heuristic")

    def _on_request_timeout(self, node_id: str, data: None) -> None:
        self._record(self.nodes[node_id], "request-timeout", detail="no response before timeout")

    # -- commands -----------------------------------------------------

    def _on_command_arrival(self, node_id: str, cmd: PropertyCommand) -> None:
        """A scenario command reaches the gateway.

        Gateway-targeted properties apply on the spot. Node-targeted
        commands wait in the gateway's per-node outbox until the node's
        radio is reachable: at the next command poll for an on-device
        node, at the next transmit window otherwise. Nodes outside
        WORKING keep their radio listening, so delivery is immediate.
        """
        if cmd.name in PROPERTY_TABLE and PROPERTY_TABLE[cmd.name][0] == "gateway":
            self._record(None, "property-command", node_id=cmd.node_id,
                         detail=_command_detail(cmd, *self.apply_gateway_command(cmd)))
            return
        node = self.nodes.get(cmd.node_id)
        if node is None:
            self._record(None, "command-dropped", node_id=cmd.node_id,
                         detail="command for unknown node")
            return
        self.pending_commands.setdefault(cmd.node_id, deque()).append(cmd)
        self._record(node, "command-queued", detail=f"{cmd.method.value} {cmd.name}")
        if node.state is not NodeState.WORKING:
            self._deliver_pending_commands(node)

    def apply_gateway_command(self, cmd: PropertyCommand) -> tuple[str, object]:
        """Apply a gateway-targeted property command per the registry gating.

        Returns ``(status, value)`` as ``SensorNode.apply_command`` does.
        """
        refusal = _gate(cmd, "gateway")
        if refusal:
            return refusal
        if cmd.name == "gateway_id":
            return "ok", GATEWAY_ID
        # provisioned_nodes: a SET takes a list of node ids, an ADD one id
        if cmd.method is PropertyMethod.GET:
            return "ok", list(self.provisioned_nodes)
        if cmd.method is PropertyMethod.ADD and isinstance(cmd.value, str):
            self.provisioned_nodes.append(cmd.value)
        elif cmd.method is PropertyMethod.SET and isinstance(cmd.value, list) and all(
                isinstance(v, str) for v in cmd.value):
            self.provisioned_nodes = list(cmd.value)
        else:
            return "invalid-value", None
        return "ok", None

    def _deliver_pending_commands(self, node: SensorNode) -> None:
        pending = self.pending_commands.get(node.node_id)
        while pending:
            cmd = pending.popleft()
            before = node.mode
            status, value = node.apply_command(cmd)
            is_state_step = isinstance(value, LifecycleEvent)
            if is_state_step:
                # the lifecycle row leads so state-machine triples read
                # cleanly off consecutive trace rows
                self._record(node, value.value, detail="via SET state")
            elif status == "protocol-violation":  # only a SET of state returns it
                self._record(node, "protocol-violation",
                             detail=f"SET state {cmd.value} has no edge from "
                                    f"{node.state.value}")
            self._record(node, "property-command", detail=_command_detail(cmd, status, value))
            if node.mode is not before:
                self._change_mode(node, node.mode, "operator")
            if is_state_step:
                self._after_lifecycle(node, value)

    # -- polling ------------------------------------------------------

    def _on_poll(self, node_id: str, data: None) -> None:
        node = self.nodes[node_id]
        pending = self.pending_commands.get(node_id)
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
            self.schedule(self.now_ms + duration, "cycle-start", node.node_id, node.epoch)


def _command_detail(cmd: PropertyCommand, status: str, value: object) -> str:
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
