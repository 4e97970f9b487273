#include "sim/metrics.hh"

#include <charconv>
#include <ostream>

#include "sim/logging.hh"

namespace snaple::sim {

std::string
formatDouble(double v)
{
    char buf[32];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    panicIf(ec != std::errc{}, "formatDouble: to_chars failed");
    return std::string(buf, p);
}

double
MetricHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return double(min_);
    if (p >= 100.0)
        return double(max_);

    // Target rank in [0, count-1]; the value at fractional rank r is
    // interpolated inside the bucket that holds floor(r).
    const double rank = p / 100.0 * double(count_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        const std::uint64_t n = buckets_[b];
        if (n == 0)
            continue;
        if (rank < double(below + n)) {
            // Linear interpolation across the bucket's value span,
            // positioned by how far the rank sits into the bucket.
            const double frac = (rank - double(below)) / double(n);
            double lo = double(bucketLo(b));
            double hi = double(bucketHi(b));
            // The recorded extremes tighten the outermost buckets.
            if (double(min_) > lo)
                lo = double(min_);
            if (double(max_) < hi)
                hi = double(max_);
            return lo + frac * (hi - lo);
        }
        below += n;
    }
    return double(max_); // unreachable when counts are consistent
}

MetricsRegistry::Instrument &
MetricsRegistry::get(std::string_view name, Kind kind)
{
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
        it = metrics_.emplace(std::string(name), Instrument{}).first;
        it->second.kind = kind;
    }
    panicIf(it->second.kind != kind,
            "metric kind mismatch for: ", it->first);
    return it->second;
}

MetricCounter &
MetricsRegistry::counter(std::string_view name)
{
    return get(name, Kind::Counter).counter;
}

MetricGauge &
MetricsRegistry::gauge(std::string_view name, GaugeMerge merge)
{
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
        Instrument &ins = get(name, Kind::Gauge);
        ins.gauge.merge_ = merge;
        return ins.gauge;
    }
    panicIf(it->second.kind != Kind::Gauge,
            "metric kind mismatch for: ", it->first);
    return it->second.gauge;
}

MetricHistogram &
MetricsRegistry::histogram(std::string_view name)
{
    return get(name, Kind::Histogram).hist;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry &src)
{
    for (const auto &[name, ins] : src.metrics_) {
        switch (ins.kind) {
          case Kind::Counter:
            counter(name).inc(ins.counter.value());
            break;
          case Kind::Gauge: {
            MetricGauge &g = gauge(name, ins.gauge.merge_);
            switch (ins.gauge.merge_) {
              case GaugeMerge::Skip:
                break;
              case GaugeMerge::Sum:
                g.v_ += ins.gauge.v_;
                break;
              case GaugeMerge::Mean:
                // value() divides by the contribution count, so the
                // aggregate reads as the across-nodes mean.
                g.v_ += ins.gauge.v_;
                ++g.mergedN_;
                break;
            }
            break;
          }
          case Kind::Histogram:
            histogram(name).mergeFrom(ins.hist);
            break;
        }
    }
}

std::vector<MetricsRegistry::SavedInstrument>
MetricsRegistry::saveState() const
{
    std::vector<SavedInstrument> out;
    out.reserve(metrics_.size());
    for (const auto &[name, ins] : metrics_) {
        SavedInstrument s;
        s.name = name;
        s.kind = static_cast<std::uint8_t>(ins.kind);
        switch (ins.kind) {
          case Kind::Counter:
            s.counter = ins.counter.value();
            break;
          case Kind::Gauge:
            s.gaugeV = ins.gauge.v_;
            s.gaugeMerge =
                static_cast<std::uint8_t>(ins.gauge.merge_);
            s.gaugeMergedN = ins.gauge.mergedN_;
            break;
          case Kind::Histogram:
            s.histCount = ins.hist.count();
            s.histSum = ins.hist.sum();
            s.histMin = ins.hist.min();
            s.histMax = ins.hist.max();
            for (std::size_t b = 0;
                 b < MetricHistogram::kNumBuckets; ++b)
                s.buckets[b] = ins.hist.bucket(b);
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
MetricsRegistry::restoreState(const std::vector<SavedInstrument> &saved)
{
    for (const SavedInstrument &s : saved) {
        fatalIf(s.kind > 2, "snapshot: bad instrument kind for ",
                s.name);
        Instrument &ins = get(s.name, static_cast<Kind>(s.kind));
        switch (ins.kind) {
          case Kind::Counter:
            ins.counter.set(s.counter);
            break;
          case Kind::Gauge:
            ins.gauge.v_ = s.gaugeV;
            ins.gauge.merge_ =
                static_cast<GaugeMerge>(s.gaugeMerge);
            ins.gauge.mergedN_ = s.gaugeMergedN;
            break;
          case Kind::Histogram: {
            std::vector<std::pair<std::size_t, std::uint64_t>> b;
            for (std::size_t i = 0;
                 i < MetricHistogram::kNumBuckets; ++i)
                if (s.buckets[i])
                    b.emplace_back(i, s.buckets[i]);
            ins.hist.restore(s.histCount, s.histSum, s.histMin,
                             s.histMax, b);
            break;
          }
        }
    }
}

void
MetricsRegistry::resetValues()
{
    for (auto &[name, ins] : metrics_) {
        (void)name;
        ins.counter.reset();
        ins.gauge.reset();
        ins.hist.reset();
    }
}

void
putJsonString(std::ostream &os, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (c == '\n')
            os << "\\n";
        else if (c == '\t')
            os << "\\t";
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
        else
            os << c;
    }
    os << '"';
}

namespace {

void
putHistFields(std::ostream &os, const MetricHistogram &h)
{
    os << "\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max()
       << ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b) {
        if (h.bucket(b) == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '[' << b << ',' << h.bucket(b) << ']';
    }
    os << ']';
}

} // namespace

void
MetricsRegistry::writeJsonl(std::ostream &os, Tick t,
                            std::string_view node) const
{
    for (const auto &[name, ins] : metrics_) {
        os << "{\"kind\":\"sample\",\"t\":" << t << ",\"node\":";
        putJsonString(os, node);
        os << ",\"name\":";
        putJsonString(os, name);
        switch (ins.kind) {
          case Kind::Counter:
            os << ",\"type\":\"counter\",\"v\":"
               << ins.counter.value();
            break;
          case Kind::Gauge:
            os << ",\"type\":\"gauge\",\"v\":"
               << formatDouble(ins.gauge.value());
            break;
          case Kind::Histogram:
            os << ",\"type\":\"hist\",";
            putHistFields(os, ins.hist);
            break;
        }
        os << "}\n";
    }
}

void
MetricsRegistry::writeMetaJsonl(std::ostream &os, std::string_view node,
                                double volts, Tick interval)
{
    os << "{\"kind\":\"meta\",\"version\":1,\"node\":";
    putJsonString(os, node);
    os << ",\"volts\":" << formatDouble(volts)
       << ",\"interval\":" << interval << "}\n";
}

void
MetricsRegistry::writeProfileJsonl(std::ostream &os,
                                   std::string_view node,
                                   const ProfileRow &row)
{
    os << "{\"kind\":\"profile\",\"node\":";
    putJsonString(os, node);
    os << ",\"handler\":";
    putJsonString(os, row.handler);
    os << ",\"pc\":" << row.pc << ",\"count\":" << row.count
       << ",\"ticks\":" << row.ticks
       << ",\"pj\":" << formatDouble(row.pj) << "}\n";
}

} // namespace snaple::sim
