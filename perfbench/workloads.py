"""The benchmark's three workloads.

Each workload builds its worlds once (``setup``), runs one untimed pass
(``warm_up``), and then serves an endless, seeded stream of ops
(``ops``/``run``).  Every op checks its own outcome against the expected
grant or deny, so the runner counts failures without trusting the program.

- ``policy-mix``: engine-heavy negotiations over the paper's scenarios and
  the parametric generators, one client in a closed loop.
- ``fleet-64``: 64 disjoint bilateral pairs interleaved on one transport
  under a seeded drop/duplicate fault plan; one op is one ``run_many``
  round.
- ``write-churn``: one provider with durable stores on every peer, serving
  reads from many clients while writes flip later outcomes and the
  provider restarts periodically.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Outcome:
    """What one op did, as the runner accounts it."""

    negotiations: int = 0
    failed: int = 0
    is_call: bool = False
    denied: int = 0
    sim_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def latency_model(seed: int, base_ms: float = 1.0, ms_per_kb: float = 0.5,
                  jitter_ms: float = 0.05):
    """Affine link latency plus a seeded jitter, fixed per (link, size) so
    retries and duplicates cannot perturb unrelated links.  The seed is an
    input of the run: another seed gives other simulated latencies."""
    draws: dict[tuple, float] = {}

    def model(sender: str, receiver: str, size: int) -> float:
        key = (sender, receiver, size)
        draw = draws.get(key)
        if draw is None:
            draw = draws[key] = random.Random(
                f"{seed}|{sender}|{receiver}|{size}").random() * jitter_ms
        return base_ms + ms_per_kb * (size / 1024.0) + draw

    return model


def answers_of(result) -> list[str]:
    return sorted(str(literal) for literal, _bindings in result.answers)


def check(result, expected: list[str] | None) -> str:
    """'' when ``result`` matches ``expected`` (sorted answer literals for a
    grant, ``None`` for a policy deny), else a description of the mismatch."""
    if expected is None:
        if result.granted or result.failure_kind != "denied":
            return (f"{result.goal}: expected deny, got granted={result.granted} "
                    f"failure_kind={result.failure_kind!r}")
        return ""
    if not result.granted:
        return f"{result.goal}: expected grant, got {result.failure_kind}: {result.failure_reason}"
    got = answers_of(result)
    if got != expected:
        return f"{result.goal}: expected answers {expected}, got {got}"
    return ""


class Workload:
    name = ""
    # Layers whose entry points the timed phase must reach.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.transports: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> list[str]:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def run(self, op) -> Outcome:
        raise NotImplementedError

    def journal_bytes(self) -> int:
        return 0

    def teardown(self) -> None:
        pass

    def _negotiate_checked(self, requester, provider: str, goal, expected,
                           strategy: str = "parsimonious") -> Outcome:
        from repro.negotiation.strategies import negotiate

        transport = requester.transport
        start_ms = transport.now_ms
        result = negotiate(requester, provider, goal, strategy=strategy)
        problem = check(result, expected)
        return Outcome(negotiations=1, failed=1 if problem else 0, is_call=True,
                       denied=int(expected is None and not problem),
                       sim_ms=[transport.now_ms - start_ms],
                       problems=[problem] if problem else [])


# ---------------------------------------------------------------------------
# policy-mix
# ---------------------------------------------------------------------------

class PolicyMix(Workload):
    """A seeded shuffle of engine-heavy negotiations, every option path.

    A deck holds each op type once, except the scenario 1 discount and the
    GEM query, which appear twice: with these weights the p50 and p90 of a
    run fall inside one op type's band rather than on the boundary between
    two, so they do not jump between op types from run to run."""

    name = "policy-mix"
    layers = ("crypto", "credentials", "datalog", "negotiation", "net",
              "runtime", "obs")
    OPS = ("s1-discount", "s1-police", "s2-free", "s2-paid", "chain-8",
           "tree-2x4", "fanout-4", "gem-2", "eager-alt-4")
    WEIGHTS = {"s1-discount": 2, "gem-2": 2}

    def setup(self) -> None:
        from repro.datalog.parser import parse_literal
        from repro.scenarios.elearn import build_scenario1
        from repro.scenarios.services import build_scenario2
        from repro.workloads.generator import (
            build_alternating_chain,
            build_delegation_chain,
            build_fanout_workload,
            build_mutual_membership_workload,
            build_policy_tree,
        )

        s1 = build_scenario1()
        s2 = build_scenario2()
        s2.world.transport.disclosure_deltas = True
        chain = build_delegation_chain(8)
        tree = build_policy_tree(2, 4)
        fanout = build_fanout_workload(4)
        fanout.world.transport.max_in_flight = 4
        gem = build_mutual_membership_workload(2)
        gem.world.transport.tabling = "gem"
        eager = build_alternating_chain(4)

        resource = ['resource("Client")']
        members = sorted(f'member("m{level}{side}")'
                         for level in range(3) for side in "ab")
        self.catalogue = {
            "s1-discount": (s1.alice, "E-Learn", 'discountEnroll(Course, "Alice")',
                            ['discountEnroll(french101, "Alice")',
                             'discountEnroll(spanish205, "Alice")'], "parsimonious"),
            "s1-police": (s1.alice, "E-Learn", 'freeEnroll(Course, "Alice")',
                          ['freeEnroll(spanish205, "Alice")'], "parsimonious"),
            "s2-free": (s2.bob, "E-Learn", 'enroll(cs101, "Bob", Company, Email, 0)',
                        ['enroll(cs101, "Bob", "IBM", "Bob@ibm.com", 0)'], "parsimonious"),
            "s2-paid": (s2.bob, "E-Learn", 'enroll(cs411, "Bob", "IBM", Email, Price)',
                        ['enroll(cs411, "Bob", "IBM", "Bob@ibm.com", 1000)'], "parsimonious"),
            "chain-8": (chain.requester, "Server", 'resource("Client")', resource, "parsimonious"),
            "tree-2x4": (tree.requester, "Server", 'resource("Client")', resource, "parsimonious"),
            "fanout-4": (fanout.requester, "Server", 'resource("Client")', resource, "parsimonious"),
            "gem-2": (gem.requester, "Org0a", "member(X)", members, "parsimonious"),
            "eager-alt-4": (eager.requester, "Server", 'resource("Client")', resource, "eager"),
        }
        self.catalogue = {name: (peer, provider, parse_literal(goal), expected, strategy)
                          for name, (peer, provider, goal, expected, strategy)
                          in self.catalogue.items()}
        model = latency_model(self.seed)
        for world in (s1.world, s2.world, chain.world, tree.world,
                      fanout.world, gem.world, eager.world):
            world.transport.latency = model
            self.transports.append(world.transport)

    @classmethod
    def deck(cls) -> list[str]:
        return [name for name in cls.OPS for _ in range(cls.WEIGHTS.get(name, 1))]

    def warm_up(self) -> list[str]:
        return [problem for name in self.OPS for problem in self.run(name).problems]

    def ops(self):
        rng = random.Random(f"policy-mix|{self.seed}")
        while True:
            deck = self.deck()
            rng.shuffle(deck)
            yield from deck

    def run(self, op) -> Outcome:
        requester, provider, goal, expected, strategy = self.catalogue[op]
        return self._negotiate_checked(requester, provider, goal, expected, strategy)


# ---------------------------------------------------------------------------
# fleet-64
# ---------------------------------------------------------------------------

class Fleet64(Workload):
    """64 disjoint quickstart pairs interleaved by ``run_many`` under a
    seeded drop/duplicate plan and a retry policy patient enough that every
    negotiation is still granted."""

    name = "fleet-64"
    layers = ("crypto", "credentials", "datalog", "negotiation", "net",
              "runtime", "obs")
    PAIRS = 64
    DROP = 0.02
    DUPLICATE = 0.02

    def setup(self) -> None:
        from repro.net.faults import FaultPlan, FaultRule
        from repro.net.transport import RetryPolicy
        from repro.workloads.generator import build_bilateral_fleet

        self.fleet = build_bilateral_fleet(self.PAIRS)
        transport = self.fleet.world.transport
        transport.latency = latency_model(self.seed)
        transport.faults = FaultPlan(seed=self.seed, rules=(
            FaultRule(drop=self.DROP, duplicate=self.DUPLICATE),))
        transport.retry = RetryPolicy(max_attempts=10)
        self.transports.append(transport)
        self.expected = [[f'hello{i}("Client{i}")'] for i in range(self.PAIRS)]

    def warm_up(self) -> list[str]:
        return self.run("round").problems

    def ops(self):
        while True:
            yield "round"

    def run(self, op) -> Outcome:
        report = self.fleet.run_interleaved()
        problems = [problem for result, expected in zip(report.results, self.expected)
                    if (problem := check(result, expected))]
        if len(report.results) != self.PAIRS:
            problems.append(f"round returned {len(report.results)} results")
        return Outcome(negotiations=self.PAIRS, failed=len(problems), is_call=True,
                       sim_ms=[end - start for start, end in report.spans],
                       problems=problems)


# ---------------------------------------------------------------------------
# write-churn
# ---------------------------------------------------------------------------

LIBRARY_PROGRAM = """
borrow(Item, Requester) $ true <-
    holding(Item),
    enrolled(Requester, Term) @ "Campus" @ Requester,
    inGoodStanding(Requester) @ "Registry".
accredited(X) @ Y $ true <-{true} accredited(X) @ Y.
"""

REGISTRY_PROGRAM = """
inGoodStanding(X) <- account(X), not suspended(X).
inGoodStanding(X) $ true <-{true} inGoodStanding(X).
"""

CLIENT_PROGRAM = """
enrolled(X, T) @ Y $ accredited(Requester) @ "Campus" @ Requester <-{true}
    enrolled(X, T) @ Y.
"""


class WriteChurn(Workload):
    """Reads from many clients against one provider, with a fixed seeded
    share of writes that flip later outcomes: suspending and reinstating a
    client at the registry, withdrawing and restocking an item at the
    provider, and renewing a client's enrolment credential for a new term
    (new content, so a signature the verification cache has not seen).
    Each suspend or withdraw is followed by a read that must now be denied.
    The provider checkpoints its store and restarts every ``RESTART_EVERY``
    ops and must come back holding its accreditation."""

    name = "write-churn"
    layers = ("crypto", "credentials", "datalog", "negotiation", "net",
              "runtime", "obs", "storage")
    CLIENTS = 24
    ITEMS = 8
    MAX_SUSPENDED = 3
    MAX_WITHDRAWN = 1
    RESTART_EVERY = 50
    # Cumulative op shares: suspend toggle, catalogue toggle, renewal.
    SHARES = (0.05, 0.09, 0.15)

    def setup(self) -> None:
        from repro.world import World

        world = self.world = World(latency=latency_model(self.seed))
        self.library = world.add_peer("Library", LIBRARY_PROGRAM + "\n".join(
            f"holding(book{j})." for j in range(self.ITEMS)))
        self.registry = world.add_peer("Registry", REGISTRY_PROGRAM + "\n".join(
            f'account("Client{k}").' for k in range(self.CLIENTS)))
        self.clients = [world.add_peer(f"Client{k}", CLIENT_PROGRAM)
                        for k in range(self.CLIENTS)]
        world.issuer("Campus")
        world.distribute_keys()
        world.give_credentials("Library", 'accredited("Library") signedBy ["Campus"].')
        self.held = {k: world.give_credentials(
            f"Client{k}", f'enrolled("Client{k}", 0) signedBy ["Campus"].')[0]
            for k in range(self.CLIENTS)}
        self.state_dir = self.scratch / "stores"
        self.stores = world.attach_state_stores("durable", state_dir=self.state_dir)
        self.transports.append(world.transport)
        self.suspended: dict[int, object] = {}   # client -> rule in Registry's KB
        self.withdrawn: set[int] = set()
        self.renewals = 0
        self.truncated_bytes = 0

    def expected(self, client: int, item: int) -> list[str] | None:
        if client in self.suspended or item in self.withdrawn:
            return None
        return [f'borrow(book{item}, "Client{client}")']

    def warm_up(self) -> list[str]:
        return [problem for k in range(self.CLIENTS)
                for problem in self.run(("read", k, k % self.ITEMS)).problems]

    def ops(self):
        rng = random.Random(f"write-churn|{self.seed}")
        suspended: set[int] = set()
        withdrawn: set[int] = set()
        index = 0
        while True:
            index += 1
            if index % self.RESTART_EVERY == 0:
                yield ("restart",)
                continue
            draw = rng.random()
            if draw < self.SHARES[0]:
                client = rng.randrange(self.CLIENTS)
                if client in suspended or len(suspended) >= self.MAX_SUSPENDED:
                    client = rng.choice(sorted(suspended))
                    suspended.discard(client)
                    yield ("reinstate", client)
                else:
                    suspended.add(client)
                    yield ("suspend", client)
                    yield ("read", client, rng.randrange(self.ITEMS))
            elif draw < self.SHARES[1]:
                item = rng.randrange(self.ITEMS)
                if item in withdrawn or len(withdrawn) >= self.MAX_WITHDRAWN:
                    item = rng.choice(sorted(withdrawn))
                    withdrawn.discard(item)
                    yield ("restock", item)
                else:
                    withdrawn.add(item)
                    yield ("withdraw", item)
                    yield ("read", rng.randrange(self.CLIENTS), item)
            elif draw < self.SHARES[2]:
                yield ("renew", rng.randrange(self.CLIENTS))
            else:
                yield ("read", rng.randrange(self.CLIENTS), rng.randrange(self.ITEMS))

    def run(self, op) -> Outcome:
        from repro.datalog.parser import parse_literal, parse_rule
        from repro.storage import recovery

        kind = op[0]
        if kind == "read":
            _, client, item = op
            goal = parse_literal(f'borrow(book{item}, "Client{client}")')
            return self._negotiate_checked(self.clients[client], "Library", goal,
                                           self.expected(client, item))
        problems = []
        if kind == "suspend":
            self.suspended[op[1]] = self.registry.kb.load(f'suspended("Client{op[1]}").')[0]
        elif kind == "reinstate":
            if not self.registry.kb.remove(self.suspended.pop(op[1])):
                problems.append(f"reinstate Client{op[1]}: rule not in KB")
        elif kind == "withdraw":
            self.withdrawn.add(op[1])
            if not self.library.kb.remove(parse_rule(f"holding(book{op[1]}).")):
                problems.append(f"withdraw book{op[1]}: rule not in KB")
        elif kind == "restock":
            self.withdrawn.discard(op[1])
            self.library.kb.load(f"holding(book{op[1]}).")
        elif kind == "renew":
            client = self.clients[op[1]]
            self.renewals += 1
            renewed = self.world.credential(
                f'enrolled("Client{op[1]}", {self.renewals}) signedBy ["Campus"].')
            client.credentials.remove(self.held[op[1]].serial)
            client.hold_credential(renewed, verify=False)
            self.held[op[1]] = renewed
        elif kind == "restart":
            store = self.stores["Library"]
            self.truncated_bytes += _size(store._journal_path)
            store.checkpoint()
            report = recovery.restart_peer(self.world.transport, "Library")
            if report.credentials < 1:
                problems.append("Library restarted without its accreditation")
        return Outcome(failed=len(problems), problems=problems)

    def journal_bytes(self) -> int:
        return self.truncated_bytes + sum(_size(store._journal_path)
                                          for store in self.stores.values())

    def teardown(self) -> None:
        self.world.detach_state_stores()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


WORKLOADS = {cls.name: cls for cls in (PolicyMix, Fleet64, WriteChurn)}
