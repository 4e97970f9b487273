#include "radio/air_exchange.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "radio/transceiver.hh"

namespace snaple::radio {

void
AirExchange::addShard(Medium *m)
{
    sim::fatalIf(fieldFinal_, "addShard after finalizeField");
    m->nodeId_ = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(m);
    down_.push_back(false);
}

void
AirExchange::setPosition(std::size_t id, double xM, double yM)
{
    sim::fatalIf(fieldFinal_, "setPosition after finalizeField");
    if (id >= pos_.size())
        pos_.resize(id + 1, {0.0, 0.0});
    pos_[id] = {xM, yM};
}

double
AirExchange::rssiDbm(std::size_t src, std::size_t dst) const
{
    sim::fatalIf(!field_, "rssiDbm without field mode");
    sim::fatalIf(src >= pos_.size() || dst >= pos_.size(),
                 "rssiDbm of unplaced node");
    const auto &[sx, sy] = pos_[src];
    const auto &[dx, dy] = pos_[dst];
    return field::rssiDbm(*field_, sx - dx, sy - dy);
}

void
AirExchange::finalizeField()
{
    if (!field_ || fieldFinal_)
        return;
    sim::fatalIf(field_->cellM <= 0.0, "field cell size must be positive");
    pos_.resize(shards_.size(), {0.0, 0.0});
    cellOf_.resize(shards_.size());
    cells_.clear();

    // A receiver farther than cellReach_ cells away (either axis) is
    // more than reach * cell_m meters out, hence beyond the
    // carrier-sense/decode range — the per-flight candidate scan never
    // has to look past the neighborhood.
    const double range = field::rangeM(*field_, field_->sensitivityDbm);
    cellReach_ = std::max<std::int32_t>(
        1, static_cast<std::int32_t>(std::ceil(range / field_->cellM)));

    // Same bound for interference, against the noise floor instead of
    // the decode sensitivity: a signal below the floor is ignored by
    // the capture sum, so flights from farther away can never matter.
    const double interfRange = field::rangeM(*field_, field_->noiseDbm);
    interfReach_ = std::max<std::int32_t>(
        1,
        static_cast<std::int32_t>(std::ceil(interfRange / field_->cellM)));

    for (std::uint32_t id = 0; id < shards_.size(); ++id) {
        const auto cell = std::make_pair(
            static_cast<std::int32_t>(
                std::floor(pos_[id].first / field_->cellM)),
            static_cast<std::int32_t>(
                std::floor(pos_[id].second / field_->cellM)));
        cellOf_[id] = cell;
        cells_[cell].push_back(id); // id order within a cell
    }
    fieldFinal_ = true;
}

void
AirExchange::fieldCandidates(std::uint32_t node,
                             std::vector<std::uint32_t> &out) const
{
    out.clear();
    const auto [cx, cy] = cellOf_[node];
    for (std::int32_t dx = -cellReach_; dx <= cellReach_; ++dx)
        for (std::int32_t dy = -cellReach_; dy <= cellReach_; ++dy) {
            const auto it = cells_.find({cx + dx, cy + dy});
            if (it != cells_.end())
                out.insert(out.end(), it->second.begin(),
                           it->second.end());
        }
}

void
AirExchange::setNodeDown(std::size_t id, bool down)
{
    sim::fatalIf(id >= down_.size(), "setNodeDown of unknown node ", id);
    if (down_[id] == down)
        return;
    down_[id] = down;
    // Going down truncates the node's own words still on the air: a
    // transmitter dying mid-word garbles the word, exactly as an
    // airtime overlap would. (Resolved field-mode flights are only
    // retained as interference records; their outcome is already
    // final, so only unresolved flights are marked.)
    if (down)
        for (AirFlight &f : pending_)
            if (f.srcNode == id && !f.resolved)
                f.collided = true;
}

void
AirExchange::setLinkUp(std::size_t a, std::size_t b, bool up)
{
    sim::fatalIf(a == b, "link fault needs two distinct nodes");
    sim::fatalIf(a >= down_.size() || b >= down_.size(),
                 "link fault on unknown node pair ", a, "-", b);
    if (up)
        downLinks_.erase(orderedPair(a, b));
    else
        downLinks_.insert(orderedPair(a, b));
}

std::size_t
AirExchange::pendingFlights() const
{
    std::size_t n = 0;
    for (const AirFlight &f : pending_)
        if (!f.resolved)
            ++n;
    return n;
}

bool
AirExchange::quiet() const
{
    if (pendingFlights() != 0)
        return false;
    for (const Medium *m : shards_)
        if (!m->outbox_.empty())
            return false;
    return true;
}

Medium::Medium(sim::Kernel &kernel, AirExchange &exchange)
    : kernel_(kernel)
{
    exchange.addShard(this);
}

void
Medium::beginTransmit(Transceiver *src, std::uint16_t word,
                      sim::Tick airtime)
{
    (void)src; // one node per shard; the exchange knows the id
    const sim::Tick now = kernel_.now();
    outbox_.push_back(
        PendingTx{now, airtime, word, txSeq_++, local_->lastTxTag()});
    ++ownActive_;
    const sim::Tick end = now + airtime;
    kernel_.schedule(end, [this, end] {
        dropEnd(ownEnds_, end);
        --ownActive_;
    });
    ownEnds_.push_back(CarrierEnd{end, kernel_.lastScheduledSeq()});
}

void
Medium::runOffer(std::uint16_t word, std::uint16_t rssi,
                 const obs::FlowTag &tag)
{
    // Shard context: count the receiver's verdict locally; the
    // coordinator folds it into the air registry at the next
    // barrier (registry counters are not thread-safe).
    switch (local_->deliver(word, rssi, tag)) {
      case DeliverStatus::Accepted:
        ++outcomes_.accepted;
        break;
      case DeliverStatus::DroppedMode:
        ++outcomes_.dropsMode;
        break;
      case DeliverStatus::DroppedFifo:
        ++outcomes_.dropsFifo;
        break;
    }
}

void
Medium::injectDelivery(sim::Tick at, std::uint16_t word,
                       std::uint16_t rssi, const obs::FlowTag &tag)
{
    kernel_.schedule(at, [this, at, word, rssi, tag] {
        // Same-tick offers fire in schedule order, so the first
        // mirror entry with this instant is the firing one.
        for (auto it = offers_.begin(); it != offers_.end(); ++it)
            if (it->at == at) {
                offers_.erase(it);
                runOffer(word, rssi, tag);
                return;
            }
        sim::panic("delivery offer with no mirror entry");
    });
    offers_.push_back(
        PendingOffer{at, word, rssi, kernel_.lastScheduledSeq(), tag});
}

Medium::SavedState
Medium::saveState() const
{
    sim::fatalIf(!outbox_.empty(),
                 "shard medium snapshot with an undrained outbox "
                 "(the barrier exchange must run first)");
    sim::fatalIf(outcomes_.accepted || outcomes_.dropsMode ||
                     outcomes_.dropsFifo,
                 "shard medium snapshot with undrained outcomes");
    SavedState s;
    s.txSeq = txSeq_;
    s.ownEnds = ownEnds_;
    s.remoteEnds = remoteEnds_;
    s.offers = offers_;
    return s;
}

void
Medium::restoreState(const SavedState &s)
{
    txSeq_ = s.txSeq;
    ownEnds_ = s.ownEnds;
    remoteEnds_ = s.remoteEnds;
    offers_ = s.offers;
    // The carrier counts are, by construction, the number of pending
    // end events of each flavor.
    ownActive_ = static_cast<unsigned>(ownEnds_.size());
    remoteCarrier_ = static_cast<unsigned>(remoteEnds_.size());
    outbox_.clear();
    outcomes_ = {};
}

void
Medium::rearmOwnEnd(std::size_t i)
{
    const sim::Tick end = ownEnds_.at(i).end;
    kernel_.schedule(end, [this, end] {
        dropEnd(ownEnds_, end);
        --ownActive_;
    });
    ownEnds_[i].seq = kernel_.lastScheduledSeq();
}

void
Medium::rearmRemoteEnd(std::size_t i)
{
    const sim::Tick end = remoteEnds_.at(i).end;
    kernel_.schedule(end, [this, end] {
        dropEnd(remoteEnds_, end);
        --remoteCarrier_;
    });
    remoteEnds_[i].seq = kernel_.lastScheduledSeq();
}

void
Medium::rearmOffer(std::size_t i)
{
    const PendingOffer o = offers_.at(i);
    kernel_.schedule(o.at, [this, at = o.at, word = o.word,
                            rssi = o.rssi, tag = o.tag] {
        for (auto it = offers_.begin(); it != offers_.end(); ++it)
            if (it->at == at) {
                offers_.erase(it);
                runOffer(word, rssi, tag);
                return;
            }
        sim::panic("re-armed delivery offer with no mirror entry");
    });
    offers_[i].seq = kernel_.lastScheduledSeq();
}

AirExchange::SavedState
AirExchange::saveState() const
{
    SavedState s;
    s.pending = pending_;
    s.down.assign(down_.begin(), down_.end());
    s.downLinks.assign(downLinks_.begin(), downLinks_.end());
    s.offersOutstanding = offersOutstanding_;
    s.metrics = registry_.saveState();
    return s;
}

void
AirExchange::restoreState(const SavedState &s)
{
    sim::fatalIf(s.down.size() != shards_.size(),
                 "snapshot: air down-flag count (", s.down.size(),
                 ") does not match the network (", shards_.size(), ")");
    pending_ = s.pending;
    down_.assign(s.down.begin(), s.down.end());
    downLinks_ =
        std::set<std::pair<std::uint32_t, std::uint32_t>>(
            s.downLinks.begin(), s.downLinks.end());
    offersOutstanding_ = s.offersOutstanding;
    registry_.restoreState(s.metrics);
}

void
AirExchange::drainOutcomes()
{
    for (Medium *m : shards_) {
        Medium::Outcomes &o = m->outcomes_;
        const std::uint64_t drained =
            o.accepted + o.dropsMode + o.dropsFifo;
        if (drained == 0)
            continue;
        wordsDelivered_->inc(o.accepted);
        dropsMode_->inc(o.dropsMode);
        dropsFifo_->inc(o.dropsFifo);
        sim::fatalIf(drained > offersOutstanding_,
                     "delivery outcomes exceed outstanding offers");
        offersOutstanding_ -= drained;
        o = {};
    }
}

std::size_t
AirExchange::drainOutboxes()
{
    // Drain every outbox into the pending list in deterministic
    // (start, source, sequence) order. Within one outbox entries are
    // already time-ordered (a kernel's clock is monotone), and every
    // new start lies in (previous barrier, barrier] — after all older
    // pending flights — so the pending list stays globally sorted.
    const std::size_t firstFresh = pending_.size();
    for (Medium *m : shards_) {
        // Words from a node that has since died were truncated on the
        // air: they still occupy the channel but resolve as collided.
        const bool truncated = down_[m->nodeId_];
        for (const Medium::PendingTx &tx : m->outbox_)
            pending_.push_back(AirFlight{tx.start, tx.start + tx.airtime,
                                         m->nodeId_, tx.seq, tx.word,
                                         truncated, false, tx.tag});
        m->outbox_.clear();
    }
    std::sort(pending_.begin() + static_cast<std::ptrdiff_t>(firstFresh),
              pending_.end(),
              [](const AirFlight &a, const AirFlight &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.srcNode != b.srcNode)
                      return a.srcNode < b.srcNode;
                  return a.seq < b.seq;
              });
    return firstFresh;
}

void
AirExchange::exchangeAt(sim::Tick barrier)
{
    drainOutcomes();
    const std::size_t firstFresh = drainOutboxes();
    if (pending_.empty())
        return;
    if (field_)
        exchangeField(barrier, firstFresh);
    else
        exchangeSingleCell(barrier, firstFresh);
}

void
AirExchange::exchangeSingleCell(sim::Tick barrier, std::size_t firstFresh)
{
    // 1. Fresh flights: count them and raise the carrier in every
    // other shard for the still-on-air remainder [barrier, end).
    for (std::size_t i = firstFresh; i < pending_.size(); ++i) {
        const AirFlight &f = pending_[i];
        wordsSent_->inc();
        if (f.end > barrier)
            for (Medium *m : shards_)
                if (m->nodeId_ != f.srcNode && m->local_ != nullptr &&
                    !down_[m->nodeId_])
                    m->remoteCarrierUntil(f.end);
    }

    // 2. Collision marking: one shared channel, so airtime intervals
    // that overlap garble each other, whoever hears them. Pairwise
    // over the start-sorted list with an early break; idempotent
    // re-marking of old pairs is harmless.
    for (std::size_t i = 0; i < pending_.size(); ++i)
        for (std::size_t j = i + 1; j < pending_.size() &&
                                    pending_[j].start < pending_[i].end;
             ++j) {
            pending_[i].collided = true;
            pending_[j].collided = true;
        }

    // 3. Finalize flights whose airtime has fully elapsed: every
    // transmission that could overlap one has started by now, so its
    // collision status is final. Deliveries land at the unquantized
    // instant (end + propagation) unless that already lies
    // inside this window — then they are pushed to the barrier (the
    // documented lookahead quantization). Acceptance is counted when
    // the receiver executes the offer, not here (drainOutcomes).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const AirFlight &f = pending_[i];
        if (f.end > barrier) {
            pending_[kept++] = pending_[i];
            continue;
        }
        if (f.collided) {
            collisions_->inc();
            continue;
        }
        const sim::Tick at = std::max(f.end + propagation_, barrier);
        for (Medium *m : shards_) {
            if (m->nodeId_ == f.srcNode || m->local_ == nullptr)
                continue;
            if (linkFilter_ && !linkFilter_(f.srcNode, m->nodeId_))
                continue;
            // Fault drops are counted (unlike static-topology
            // filtering above), so air counters reconcile per
            // reachable receiver: delivered + drops_* + pending.
            if (down_[m->nodeId_]) {
                dropsDead_->inc();
                continue;
            }
            if (!linkUp(f.srcNode, m->nodeId_)) {
                dropsLink_->inc();
                continue;
            }
            m->injectDelivery(at, f.word, 0, f.tag);
            ++offersOutstanding_;
        }
    }
    pending_.resize(kept);
}

void
AirExchange::exchangeField(sim::Tick barrier, std::size_t firstFresh)
{
    sim::fatalIf(!fieldFinal_,
                 "field exchange before finalizeField()");
    const FieldConfig &cfg = *field_;

    // 1. Fresh flights: count them and raise the carrier only where
    // the word is audible — nodes in the transmitter's cell
    // neighborhood whose receiver-side signal clears the
    // carrier-sense cutoff. This is the spatial-sharding payoff: the
    // inner loop is over the neighborhood, never the whole network.
    for (std::size_t i = firstFresh; i < pending_.size(); ++i) {
        const AirFlight &f = pending_[i];
        wordsSent_->inc();
        if (f.end <= barrier)
            continue;
        fieldCandidates(f.srcNode, candScratch_);
        for (std::uint32_t r : candScratch_) {
            if (r == f.srcNode)
                continue;
            Medium *m = shards_[r];
            if (m->local_ == nullptr || down_[r])
                continue;
            if (rssiDbm(f.srcNode, r) >= cfg.sensitivityDbm)
                m->remoteCarrierUntil(f.end);
        }
    }

    // 2. Resolve flights whose airtime has elapsed: every overlapping
    // transmission has started by now (it would be in some outbox
    // drained this barrier), so the interference picture is complete.
    // Per in-range receiver, the capture rule decides delivery, with
    // interferers summed in pending-list order — (start, src, seq),
    // independent of shard assignment.
    const double capture = field::dbFactor(cfg.captureDb);
    const double noiseMw = field::dbmToMw(cfg.noiseDbm);

    // Index every pending flight by its transmitter's cell, so the
    // per-receiver interference sum below walks only the flights
    // within noise-floor reach instead of the whole pending list.
    // Per-cell lists are ascending pending indices by construction.
    flightCells_.clear();
    for (std::size_t i = 0; i < pending_.size(); ++i)
        flightCells_[cellOf_[pending_[i].srcNode]].push_back(i);

    for (std::size_t i = 0; i < pending_.size(); ++i) {
        AirFlight &f = pending_[i];
        if (f.resolved || f.end > barrier)
            continue;
        f.resolved = true;
        const sim::Tick at = std::max(f.end + propagation_, barrier);
        fieldCandidates(f.srcNode, candScratch_);
        for (std::uint32_t r : candScratch_) {
            if (r == f.srcNode)
                continue;
            Medium *m = shards_[r];
            if (m->local_ == nullptr)
                continue;
            if (linkFilter_ && !linkFilter_(f.srcNode, r))
                continue;
            const double sigDbm = rssiDbm(f.srcNode, r);
            if (sigDbm < cfg.sensitivityDbm)
                continue; // out of range: not an opportunity at all
            rxInRange_->inc();
            if (down_[r]) {
                dropsDead_->inc();
                continue;
            }
            if (!linkUp(f.srcNode, r)) {
                dropsLink_->inc();
                continue;
            }
            if (f.collided) { // transmitter died mid-word
                collisions_->inc();
                continue;
            }
            // Capture: the signal must clear noise plus the sum of
            // every overlapping word's received power by the margin
            // (exactly at the threshold still decodes). A signal
            // below the noise floor does not interfere.
            // Candidate interferers: flights transmitted within
            // interfReach_ cells of the receiver. Merging the per-cell
            // lists and sorting restores global pending order, so the
            // floating-point sum accumulates in exactly the order the
            // full-list scan used — bit-identical results.
            interfScratch_.clear();
            const auto [rcx, rcy] = cellOf_[r];
            for (std::int32_t dx = -interfReach_; dx <= interfReach_;
                 ++dx)
                for (std::int32_t dy = -interfReach_;
                     dy <= interfReach_; ++dy) {
                    const auto it =
                        flightCells_.find({rcx + dx, rcy + dy});
                    if (it != flightCells_.end())
                        interfScratch_.insert(interfScratch_.end(),
                                              it->second.begin(),
                                              it->second.end());
                }
            std::sort(interfScratch_.begin(), interfScratch_.end());
            double interfMw = noiseMw;
            for (const std::size_t gi : interfScratch_) {
                const AirFlight &g = pending_[gi];
                if (g.start >= f.end)
                    break; // start-sorted: nothing later overlaps
                if (&g == &f || g.end <= f.start)
                    continue;
                const double gDbm = rssiDbm(g.srcNode, r);
                if (gDbm >= cfg.noiseDbm)
                    interfMw += field::dbmToMw(gDbm);
            }
            if (field::dbmToMw(sigDbm) >= capture * interfMw) {
                m->injectDelivery(at, f.word,
                                  field::rssiToWord(sigDbm), f.tag);
                ++offersOutstanding_;
            } else {
                collisions_->inc(); // garbled at this receiver
            }
        }
    }

    // 3. Prune. An unresolved flight keeps every flight overlapping
    // it alive as an interference record; anything older is done.
    // Future flights start after this barrier, hence after every
    // resolved flight's end — they can never need a pruned record.
    sim::Tick minUnresolved = std::numeric_limits<sim::Tick>::max();
    for (const AirFlight &f : pending_)
        if (!f.resolved)
            minUnresolved = std::min(minUnresolved, f.start);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i)
        if (!pending_[i].resolved || pending_[i].end > minUnresolved)
            pending_[kept++] = pending_[i];
    pending_.resize(kept);
}

} // namespace snaple::radio
