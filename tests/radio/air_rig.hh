/**
 * @file
 * Host-driven radio rig for the channel tests.
 *
 * Every node is a full SnapNode in a net::ParallelNetwork (jobs = 1),
 * running one of two guests: an idle one that never touches the radio
 * (the host sets its mode and drives its transmissions on the node's
 * own kernel), or a listener that puts the radio in Rx at boot and
 * logs every received word through dbgout.
 */

#ifndef SNAPLE_TESTS_RADIO_AIR_RIG_HH
#define SNAPLE_TESTS_RADIO_AIR_RIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "radio/field.hh"
#include "radio/transceiver.hh"

namespace snaple::test {

/** Sleeps forever; every event (handler address 0) re-runs `done`. */
inline const char *const kIdleGuest = R"(
boot:
    done
)";

/** Receive mode from boot on; every accepted word goes to dbgout. */
inline const char *const kListenerGuest = R"(
    .equ EV_RX, 3
    .equ CMD_RX, 0x8001
boot:
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r15, CMD_RX
    done
on_rx:
    mov  r3, r15
    dbgout r3
    done
)";

/** Transmit @p words back to back from the host, as the message
 *  coprocessor would: each word once the previous one has left. */
inline sim::Co<void>
txWords(radio::Transceiver &t, std::vector<std::uint16_t> words)
{
    for (auto w : words) {
        sim::Tick end = t.transmitStart(w);
        co_await t.kernel().delay(end - t.kernel().now());
    }
}

class AirRig
{
  public:
    enum class Guest
    {
        Idle,
        Listener
    };

    /** Single-cell channel, or field mode when @p field is given. */
    explicit AirRig(const radio::FieldConfig *field = nullptr)
    {
        if (field)
            net.setField(*field);
    }

    /** Add a node; returns its index. */
    std::size_t
    add(Guest g = Guest::Idle)
    {
        node::NodeConfig c;
        c.name = "n" + std::to_string(net.size());
        c.core.stopOnHalt = false;
        net.addNode(c, assembler::assembleSnap(
                           g == Guest::Idle ? kIdleGuest : kListenerGuest));
        return net.size() - 1;
    }

    /** Add a node at (@p xM, @p yM) meters (field mode). */
    std::size_t
    addAt(double xM, double yM, Guest g = Guest::Idle)
    {
        const std::size_t i = add(g);
        net.setNodePosition(i, xM, yM);
        return i;
    }

    radio::Transceiver &radio(std::size_t i)
    {
        return *net.node(i).transceiver();
    }

    /** Words node @p i's listener guest has received, in order. */
    const std::vector<std::uint16_t> &
    heard(std::size_t i)
    {
        return net.node(i).core().debugOut();
    }

    /** Start transmitting @p words from node @p i at the current tick. */
    void
    send(std::size_t i, std::vector<std::uint16_t> words)
    {
        ensureStarted();
        net.shardKernel(i).spawn(txWords(radio(i), std::move(words)));
    }

    void
    run(sim::Tick t)
    {
        ensureStarted();
        net.runFor(t);
    }

    void
    ensureStarted()
    {
        if (!started_)
            net.start();
        started_ = true;
    }

    net::ParallelNetwork net;

  private:
    bool started_ = false;
};

} // namespace snaple::test

#endif // SNAPLE_TESTS_RADIO_AIR_RIG_HH
