"""Call-graph construction on the tricky shapes from the real tree."""

import ast
import textwrap

from repro.analysis.flow.callgraph import own_nodes

from tests.analysis.flow.conftest import make_program


def edge_pairs(program):
    return {(site.caller, site.callee, site.kind) for site in program.edges}


class TestResolution:
    def test_module_function_call(self):
        program = make_program(
            mod="""
            def helper():
                return 1

            def caller():
                return helper()
            """
        )
        assert ("repro.mod.caller", "repro.mod.helper", "call") in edge_pairs(
            program
        )

    def test_self_method_through_imported_base(self):
        program = make_program(
            base="""
            class Device:
                def start(self):
                    pass
            """,
            derived="""
            from repro.base import Device

            class AtmDevice(Device):
                def boot(self):
                    self.start()
            """,
        )
        assert (
            "repro.derived.AtmDevice.boot",
            "repro.base.Device.start",
            "call",
        ) in edge_pairs(program)

    def test_imported_function_cross_module(self):
        program = make_program(
            util="""
            def checksum(data):
                return sum(data)
            """,
            net="""
            from repro.util import checksum

            def deliver(data):
                return checksum(data)
            """,
        )
        assert (
            "repro.net.deliver",
            "repro.util.checksum",
            "call",
        ) in edge_pairs(program)

    def test_decorated_function_still_resolves(self):
        program = make_program(
            mod="""
            def wrap(fn):
                return fn

            @wrap
            def handler():
                pass

            def boot(sim):
                sim.schedule_callback(0.0, handler)
            """
        )
        assert (
            "repro.mod.boot",
            "repro.mod.handler",
            "scheduled",
        ) in edge_pairs(program)
        assert "repro.mod.handler" in program.callback_roots

    def test_attribute_receiver_with_inferred_type(self):
        program = make_program(
            mod="""
            class Pool:
                def drain(self):
                    pass

            class Owner:
                def __init__(self):
                    self.pool = Pool()

                def stop(self):
                    self.pool.drain()
            """
        )
        assert (
            "repro.mod.Owner.stop",
            "repro.mod.Pool.drain",
            "call",
        ) in edge_pairs(program)


class TestScheduledTargets:
    def test_schedule_callback_nested_function(self):
        program = make_program(
            mod="""
            def boot(sim):
                def on_fire():
                    pass
                sim.schedule_callback(1.0, on_fire)
            """
        )
        assert "repro.mod.boot.on_fire" in program.callback_roots

    def test_schedule_callback_lambda(self):
        program = make_program(
            mod="""
            def boot(sim):
                sim.schedule_callback(1.0, lambda: None)
            """
        )
        assert any("<lambda>" in q for q in program.callback_roots)

    def test_schedule_callback_single_assignment_alias(self):
        program = make_program(
            mod="""
            def handler():
                pass

            def boot(sim):
                cb = handler
                sim.schedule_callback(0.0, cb)
            """
        )
        assert "repro.mod.handler" in program.callback_roots

    def test_generator_process_target(self):
        program = make_program(
            mod="""
            class Device:
                def start(self, sim):
                    sim.process(self._rx_proc())

                def _rx_proc(self):
                    yield 1
            """
        )
        assert "repro.mod.Device._rx_proc" in program.callback_roots
        rx = program.functions["repro.mod.Device._rx_proc"]
        assert rx.is_generator

    def test_schedule_timer_target_is_a_root(self):
        program = make_program(
            mod="""
            def on_timeout():
                pass

            def arm(sim):
                return sim.schedule_timer(5.0, on_timeout)
            """
        )
        assert "repro.mod.on_timeout" in program.callback_roots

    def test_continuation_targets_are_roots(self):
        program = make_program(
            mod="""
            class Firmware:
                def start(self):
                    self.fifo.get_then(self._on_cell)

                def _on_cell(self, cell):
                    self.cpu.use_then(2.0, self._after, cell)

                def _after(self, cell):
                    self.start()
            """
        )
        assert "repro.mod.Firmware._on_cell" in program.callback_roots
        assert "repro.mod.Firmware._after" in program.callback_roots
        assert program.root_kinds["repro.mod.Firmware._after"] == {"callback"}


class TestReachability:
    def test_reachable_from_callbacks_is_transitive(self):
        program = make_program(
            mod="""
            def leaf():
                pass

            def middle():
                leaf()

            def tick():
                middle()

            def unrelated():
                pass

            def boot(sim):
                sim.schedule_callback(0.0, tick)
            """
        )
        reachable = program.reachable_from_callbacks()
        assert {"repro.mod.tick", "repro.mod.middle", "repro.mod.leaf"} <= reachable
        assert "repro.mod.unrelated" not in reachable
        assert "repro.mod.boot" not in reachable


class TestOwnNodes:
    def test_does_not_descend_into_nested_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def outer():
                    x = 1
                    def inner():
                        y = 2
                    lamb = lambda: 3
                """
            )
        )
        nodes = list(own_nodes(tree.body[0]))
        assert any(isinstance(n, ast.FunctionDef) for n in nodes)
        names = {
            n.targets[0].id for n in nodes if isinstance(n, ast.Assign)
        }
        assert names == {"x", "lamb"}
        constants = {
            n.value for n in nodes if isinstance(n, ast.Constant)
        }
        assert 2 not in constants
        assert 3 not in constants

    def test_module_scope_stops_at_top_level_functions(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                TABLE = {}

                def fn(sim):
                    sim.schedule_callback(0, fn)
                """
            )
        )
        calls = [n for n in own_nodes(tree) if isinstance(n, ast.Call)]
        assert calls == []
