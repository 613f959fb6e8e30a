"""Discrete-event simulation substrate (clock, processes, resources, RNG)."""

from .core import AllOf, AnyOf, Event, Interrupt, Process, SimulationError, Simulator, Timeout
from .equeue import HeapEventQueue, make_queue
from .faults import CrashEvent, FaultEvent, FaultPlan, FaultSpec, FaultTrace
from .link import BatchingLink, SerialLink
from .resources import Resource, Semaphore, Store
from .rng import HotspotGenerator, RngStream, ZipfGenerator
from .stats import Counter, LatencyRecorder, LogHistogram, OnlineStats, ThroughputMeter

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "HeapEventQueue",
    "make_queue",
    "Resource",
    "Semaphore",
    "Store",
    "SerialLink",
    "BatchingLink",
    "RngStream",
    "ZipfGenerator",
    "HotspotGenerator",
    "OnlineStats",
    "LogHistogram",
    "LatencyRecorder",
    "ThroughputMeter",
    "Counter",
    "FaultSpec",
    "FaultPlan",
    "FaultTrace",
    "FaultEvent",
    "CrashEvent",
]
