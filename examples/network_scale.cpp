/**
 * @file
 * Network at scale: the paper's introduction frames sensor networks
 * as *statistical* entities — the link is unreliable and the system
 * infers from whatever subset of readings arrives. This example runs
 * an eight-node line with three periodic senders converging on one
 * sink, sweeps the offered load, and reports delivery ratio,
 * collisions, drops and energy — the regime SNAP/LE's event queue and
 * CSMA MAC were designed for.
 *
 * Build & run:  ./build/examples/network_scale [--jobs K]   (K in 1..256)
 *
 * With --jobs > 1 the line is simulated on the sharded parallel
 * engine (net::ParallelNetwork) — results are bit-identical to the
 * single-threaded run by construction, just faster on a multi-core
 * host.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "sim/args.hh"

namespace {

using namespace snaple;

/** A periodic sender app: every period, send a tagged reading. */
std::string
periodicSender(unsigned sink, unsigned period_ms, unsigned tag)
{
    unsigned ticks = period_ms * 1000;
    std::string sched = "        li   r1, 0\n        li   r2, " +
                        std::to_string(ticks >> 16) +
                        "\n        schedhi r1, r2\n        li   r2, " +
                        std::to_string(ticks & 0xffff) +
                        "\n        schedlo r1, r2\n";
    return R"(
app_boot:
        li   r1, EV_T0
        la   r2, ps_timer
        setaddr r1, r2
        clr  r3
        stw  r3, APP_BASE(r0)   ; sequence counter
)" + sched + R"(        ret

ps_timer:
        ldw  r5, TX_PEND(r0)
        bnez r5, ps_rearm       ; frame in flight: skip this round
        ldw  r3, APP_BASE(r0)
        inc  r3
        stw  r3, APP_BASE(r0)
        li   r4, )" + std::to_string(tag << 8) + R"(
        or   r4, r3
        stw  r4, TX_BUF+2(r0)
        li   r1, )" + std::to_string(sink) + R"(
        li   r2, 1
        call send_data
ps_rearm:
)" + sched + R"(        done

app_rx:
        ret
)";
}

struct RunResult
{
    unsigned sent[3] = {0, 0, 0};
    unsigned delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t eventDrops = 0;
    double sinkProcUj = 0.0;
};

RunResult
run(unsigned period_ms, double seconds, unsigned jobs)
{
    net::ParallelNetwork net(1 * sim::kMicrosecond, jobs);
    node::NodeConfig cfg;
    cfg.core.stopOnHalt = false;
    cfg.core.volts = 0.6;

    // Line: senders at 1, 2, 3; relays 4..7; sink 8.
    std::vector<node::SnapNode *> nodes;
    for (unsigned a = 1; a <= 3; ++a) {
        cfg.name = "send-" + std::to_string(a);
        nodes.push_back(&net.addNode(
            cfg, assembler::assembleSnap(apps::macNodeProgram(
                     a, periodicSender(8, period_ms + 37 * a, a)))));
    }
    for (unsigned a = 4; a <= 7; ++a) {
        cfg.name = "relay-" + std::to_string(a);
        nodes.push_back(&net.addNode(
            cfg, assembler::assembleSnap(apps::relayNodeProgram(a))));
    }
    cfg.name = "sink-8";
    auto &sink = net.addNode(
        cfg, assembler::assembleSnap(apps::sinkNodeProgram(8)));
    net.setLineTopology();
    net.start();
    net.runFor(sim::fromSec(seconds));

    RunResult r;
    for (int s = 0; s < 3; ++s)
        r.sent[s] = nodes[s]->dmem().peek(apps::layout::kAppBase);
    r.delivered = static_cast<unsigned>(sink.core().debugOut().size());
    r.collisions = net.stats().collisions;
    for (std::size_t i = 0; i < net.size(); ++i)
        r.eventDrops += net.node(i).msgCoproc().stats().eventsDropped;
    r.sinkProcUj = sink.ctx().ledger.processorPj() / 1e6;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") || i + 1 == argc) {
            std::fprintf(stderr, "usage: network_scale [--jobs K] "
                                 "(K in 1..256)\n");
            return 2;
        }
        std::uint64_t v = 0;
        if (!sim::parseCountArg(argv[++i], 1, sim::kMaxJobs, v))
            return sim::badArg("--jobs", "an integer from 1 to 256",
                               argv[i]);
        jobs = static_cast<unsigned>(v);
    }
    const double seconds = 20.0;
    std::printf("eight-node line, three periodic senders -> one sink, "
                "%.0f simulated seconds, %u worker lane%s\n\n",
                seconds, jobs, jobs == 1 ? "" : "s");
    std::printf("%10s | %8s %10s %11s %11s %12s\n", "period",
                "offered", "delivered", "ratio", "collisions",
                "sink proc uJ");
    for (int i = 0; i < 70; ++i)
        std::putchar('-');
    std::putchar('\n');

    for (unsigned period_ms : {2000u, 1000u, 500u, 250u}) {
        RunResult r = run(period_ms, seconds, jobs);
        unsigned offered = r.sent[0] + r.sent[1] + r.sent[2];
        std::printf("%7u ms | %8u %10u %10.0f%% %11llu %12.2f\n",
                    period_ms, offered, r.delivered,
                    offered ? 100.0 * r.delivered / offered : 0.0,
                    static_cast<unsigned long long>(r.collisions),
                    r.sinkProcUj);
    }
    std::printf(
        "\nAs the offered load rises, CSMA backoff absorbs some "
        "contention and the rest\nshows up as collisions and losses — "
        "deliveries become a *sample* of the\nreadings, which is how "
        "the paper's mobile-agent view treats the network.\nLost "
        "frames are abandoned to the next period (no ACKs), exactly "
        "the\nstatistical stance of [19].\n");
    return 0;
}
