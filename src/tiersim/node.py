"""Sensor node behavioral model.

Covers the five-state lifecycle machine, the method-gated device
property registry, and duty-cycle planning (sleep phase plus an active
phase whose shape depends on the inference mode). The node produces
timed cycle plans; executing them against the event queue and the
energy ledger is the engine's job.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .model import (
    AnomalyTracker,
    BatteryState,
    ConfigurationError,
    InferenceMode,
    NodeState,
    SimulationError,
    new_tracker,
)
from .energy import EnergyTable


class LifecycleEvent(enum.Enum):
    """Inputs that drive the node state machine."""

    PROVISIONING_COMPLETE = "provision-complete"
    PROPERTIES_UPDATED = "properties-updated"
    CONFIG_CONFIRM = "config-confirm"
    CONFIG_REJECT = "config-reject"
    IDLE_COMMAND = "idle-command"
    RESET_COMMAND = "reset-command"


#: The six legal lifecycle transitions; anything else is a protocol violation.
TRANSITIONS: dict[tuple[NodeState, LifecycleEvent], NodeState] = {
    (NodeState.INITIAL, LifecycleEvent.PROVISIONING_COMPLETE): NodeState.UNLOCKED,
    (NodeState.UNLOCKED, LifecycleEvent.PROPERTIES_UPDATED): NodeState.LOCKED,
    (NodeState.LOCKED, LifecycleEvent.CONFIG_CONFIRM): NodeState.WORKING,
    (NodeState.LOCKED, LifecycleEvent.CONFIG_REJECT): NodeState.UNLOCKED,
    (NodeState.WORKING, LifecycleEvent.IDLE_COMMAND): NodeState.IDLE,
    (NodeState.IDLE, LifecycleEvent.RESET_COMMAND): NodeState.UNLOCKED,
}


class InvalidTransitionError(Exception):
    """Lifecycle event not legal in the node's current state."""

    def __init__(self, state: NodeState, event: LifecycleEvent) -> None:
        super().__init__(f"event {event.value} not valid in state {state.value}")
        self.state = state
        self.event = event


class PropertyMethod(enum.Enum):
    SET = "SET"
    GET = "GET"
    ADD = "ADD"


@dataclass(frozen=True)
class PropertySpec:
    """One row of the device property registry."""

    name: str
    methods: frozenset[PropertyMethod]
    target: str  # "sensor" or "gateway"
    dtype: str


def _spec(name: str, methods: str, target: str, dtype: str) -> PropertySpec:
    parsed = frozenset(PropertyMethod(m) for m in methods.split("/"))
    return PropertySpec(name, parsed, target, dtype)


#: Device property registry: what can be read or written on which device.
PROPERTY_TABLE: dict[str, PropertySpec] = {
    s.name: s
    for s in (
        _spec("tf_model_bytes", "SET", "sensor", "uint8*"),
        _spec("tf_model_size", "SET", "sensor", "uint32"),
        _spec("provisioned_nodes", "SET/GET/ADD", "gateway", "char**"),
        _spec("gateway_id", "GET", "gateway", "char*"),
        _spec("sensor_id", "GET", "sensor", "char*"),
        _spec("sleep_period", "SET/GET", "sensor", "uint32"),
        _spec("state", "SET/GET", "sensor", "uint32"),
        _spec("inference_mode", "SET/GET", "sensor", "uint8"),
    )
}


@dataclass(frozen=True)
class PropertyCommand:
    """A method applied to one named property of one target device."""

    node_id: str
    name: str
    method: PropertyMethod
    value: object | None = None


@dataclass(frozen=True)
class PropertyResponse:
    status: str  # "ok" | "method-not-allowed" | "unknown-property" | "invalid-value" | "protocol-violation"
    value: object | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class CycleStep:
    """One timed operation inside a duty cycle and the energy it costs."""

    at_ms: float
    kind: str  # trace event kind
    duration_ms: float
    operation: str  # energy ledger tag
    energy_mj: float


@dataclass(frozen=True)
class CyclePlan:
    """The timed layout of one duty cycle.

    ``end_ms`` is None when the cycle ends with a command poll, whose
    duration depends on whether commands are pending and is therefore
    resolved by the engine at poll time.
    """

    steps: tuple[CycleStep, ...]
    predict_at: float | None = None
    request_at: float | None = None
    poll_at: float | None = None
    end_ms: float | None = None


@dataclass
class SensorNode:
    """One battery-powered sensing device.

    The node owns its lifecycle state, inference mode, on-device anomaly
    history, battery, and writable properties. It never changes mode on
    its own inside a cycle; mode changes arrive as property commands (or,
    in on-device mode, from the sensor heuristic between cycles).
    """

    node_id: str
    state: NodeState = NodeState.INITIAL
    mode: InferenceMode = InferenceMode.SENSOR
    tracker: AnomalyTracker = field(default_factory=lambda: new_tracker(32))
    battery: BatteryState = field(default_factory=BatteryState)
    sleep_period_ms: float = 30_000.0
    properties: dict[str, object] = field(default_factory=dict)
    cycle_index: int = 0
    epoch: int = 0  # WORKING spells entered; a duty cycle belongs to one

    def __post_init__(self) -> None:
        if self.sleep_period_ms < 0:
            raise ConfigurationError(
                f"sleep period must be >= 0 ms, got {self.sleep_period_ms}"
            )

    # -- state machine ------------------------------------------------

    def step_state(self, event: LifecycleEvent) -> NodeState:
        """Apply a lifecycle event; raises InvalidTransitionError on bad input."""
        key = (self.state, event)
        if key not in TRANSITIONS:
            raise InvalidTransitionError(self.state, event)
        self.state = TRANSITIONS[key]
        return self.state

    # -- inference mode -----------------------------------------------

    def set_mode(self, new_mode: InferenceMode) -> bool:
        """Switch inference mode; returns True if the mode actually changed.

        A real change resets the on-device anomaly history (the window
        only describes predictions made under one mode).
        """
        if new_mode is self.mode:
            return False
        self.mode = new_mode
        self.tracker = new_tracker(self.tracker.depth)
        return True

    # -- device properties ----------------------------------------------

    def apply_command(self, cmd: PropertyCommand) -> PropertyResponse:
        """Apply a SET/GET property command per the registry gating."""
        spec = PROPERTY_TABLE.get(cmd.name)
        if spec is None or spec.target != "sensor":
            return PropertyResponse("unknown-property")
        if cmd.method not in spec.methods:
            return PropertyResponse("method-not-allowed")

        if cmd.method is PropertyMethod.GET:
            return PropertyResponse("ok", self._get_property(cmd.name))
        return self._set_property(cmd.name, cmd.value)

    def _get_property(self, name: str) -> object:
        if name == "sensor_id":
            return self.node_id
        if name == "sleep_period":
            return self.sleep_period_ms
        if name == "state":
            return self.state.value
        if name == "inference_mode":
            return self.mode.value
        return self.properties.get(name)

    def _set_property(self, name: str, value: object) -> PropertyResponse:
        if name == "sleep_period":
            try:
                period = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return PropertyResponse("invalid-value")
            if not math.isfinite(period) or period < 0:
                return PropertyResponse("invalid-value")
            self.sleep_period_ms = period  # takes effect from the next cycle
            return PropertyResponse("ok")
        if name == "inference_mode":
            try:
                mode = value if isinstance(value, InferenceMode) else InferenceMode.parse(str(value))
            except ConfigurationError:
                return PropertyResponse("invalid-value")
            self.set_mode(mode)
            return PropertyResponse("ok")
        if name == "state":
            try:
                target = value if isinstance(value, NodeState) else NodeState.parse(str(value))
            except ConfigurationError:
                return PropertyResponse("invalid-value")
            event = _event_for_target_state(self.state, target)
            if event is None:
                return PropertyResponse("protocol-violation")
            self.step_state(event)
            # callers need the lifecycle event to continue orchestration
            return PropertyResponse("ok", event)
        if name in ("tf_model_bytes", "tf_model_size"):
            # Recorded as opaque payload; a model swap does not alter the
            # prediction oracle mid-run.
            self.properties[name] = value
            return PropertyResponse("ok")
        return PropertyResponse("unknown-property")

    # -- duty cycle ------------------------------------------------------

    def plan_cycle(self, now_ms: float, table: EnergyTable, poll_due: bool = False) -> CyclePlan:
        """Lay out the next duty cycle starting at ``now_ms``.

        The cycle is a sleep phase followed by the active phase: a full
        sampling window, then either on-device inference or
        compress-and-transmit. ``poll_due`` appends a command poll to an
        on-device cycle (the only time such a node wakes its radio).
        """
        if self.state is not NodeState.WORKING:
            raise SimulationError(
                f"node {self.node_id} cannot run a cycle in state {self.state.value}"
            )
        self.cycle_index += 1
        sleep, sampling = self.sleep_period_ms, table.sampling
        steps = [
            CycleStep(now_ms, "sleep", sleep, "deep_sleep", table.sleep_energy_mj(sleep)),
            CycleStep(now_ms + sleep, "sample", sampling.duration_ms, "sampling",
                      sampling.energy_mj),
        ]
        sampled = now_ms + sleep + sampling.duration_ms
        if self.mode is InferenceMode.SENSOR:
            infer = table.local_inference
            steps.append(CycleStep(sampled, "infer-local", infer.duration_ms,
                                   "local_inference", infer.energy_mj))
            done = sampled + infer.duration_ms
            return CyclePlan(
                steps=tuple(steps),
                predict_at=done,
                poll_at=done if poll_due else None,
                end_ms=None if poll_due else done,
            )
        compress, radio = table.compression, table.radio_tx
        steps.append(CycleStep(sampled, "compress", compress.duration_ms, "compression",
                               compress.energy_mj))
        tx_start = sampled + compress.duration_ms
        steps.append(CycleStep(tx_start, "radio-tx", radio.duration_ms, "radio_tx",
                               radio.energy_mj))
        return CyclePlan(
            steps=tuple(steps),
            request_at=tx_start,
            end_ms=tx_start + radio.duration_ms,
        )


def _event_for_target_state(current: NodeState, target: NodeState) -> LifecycleEvent | None:
    """Map a SET state command to the lifecycle event reaching the target."""
    for (src, event), dst in TRANSITIONS.items():
        if src is current and dst is target:
            return event
    return None
