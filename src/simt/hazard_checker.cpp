#include "simt/hazard_checker.hpp"

#include "core/json_writer.hpp"
#include "simt/engine.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

namespace satgpu::simt {

namespace {

[[nodiscard]] std::string site_string(const std::source_location& site)
{
    return trim_source_path(site.file_name()) + ":" +
           std::to_string(site.line());
}

} // namespace

std::string_view to_string(HazardKind k) noexcept
{
    switch (k) {
    case HazardKind::kSmemRaw: return "smem-raw";
    case HazardKind::kSmemWar: return "smem-war";
    case HazardKind::kSmemWaw: return "smem-waw";
    case HazardKind::kSmemUninitRead: return "smem-uninit-read";
    case HazardKind::kBarrierDivergence: return "barrier-divergence";
    case HazardKind::kShuffleInactiveSource: return "shuffle-inactive-source";
    case HazardKind::kVoteInactivePredicate: return "vote-inactive-predicate";
    }
    return "?";
}

HazardCheckerScope::HazardCheckerScope(HazardChecker* c) noexcept
    : prev_(detail::g_hazard_checker)
{
    detail::g_hazard_checker = c;
}

HazardCheckerScope::~HazardCheckerScope()
{
    detail::g_hazard_checker = prev_;
}

void HazardChecker::begin_block(std::int64_t linear) noexcept
{
    block_seq_ += 1; // lazily invalidates every shadow entry
    epoch_ = 0;
    block_ = linear;
    warp_ = -1;
}

void HazardChecker::end_block() noexcept
{
    block_ = -1;
    warp_ = -1;
}

void HazardChecker::record(HazardKind kind, const std::source_location& site,
                           const std::source_location* other_site,
                           std::string_view note, std::int64_t detail,
                           int warp, int other_warp)
{
    Key key{kind, site_string(site),
            other_site ? site_string(*other_site) : std::string{},
            std::string(note)};
    Accum& a = findings_[std::move(key)];
    a.count += 1;
    const auto cand = std::tuple(block_, detail, warp, other_warp);
    if (a.count == 1 ||
        cand < std::tuple(a.first_block, a.detail, a.warp, a.other_warp)) {
        a.first_block = block_;
        a.detail = detail;
        a.warp = warp;
        a.other_warp = other_warp;
    }
}

void HazardChecker::record_smem_access(bool is_store, std::int64_t byte_offset,
                                       std::string_view alloc_name,
                                       const std::source_location& site)
{
    if (byte_offset < 0)
        return;
    const auto off = static_cast<std::size_t>(byte_offset);
    if (off >= shadow_.size())
        shadow_.resize(std::max(off + 1, shadow_.size() * 2));
    ElemShadow& e = shadow_[off];
    if (e.block_seq != block_seq_) {
        e = ElemShadow{};
        e.block_seq = block_seq_;
    }
    const std::uint32_t self_bit =
        (warp_ >= 0 && warp_ < 32) ? (1u << warp_) : 0u;
    if (is_store) {
        if (e.written && e.writer_warp != warp_ && e.write_epoch == epoch_) {
            record(HazardKind::kSmemWaw, site, &e.write_site, alloc_name,
                   byte_offset, warp_, e.writer_warp);
        } else if ((e.reader_warps & ~self_bit) != 0 &&
                   e.read_epoch == epoch_) {
            record(HazardKind::kSmemWar, site, &e.read_site, alloc_name,
                   byte_offset, warp_,
                   std::countr_zero(e.reader_warps & ~self_bit));
        }
        e.written = true;
        e.writer_warp = warp_;
        e.write_epoch = epoch_;
        e.write_site = site;
        e.reader_warps = 0; // earlier readers were checked against above
    } else {
        if (!e.written) {
            record(HazardKind::kSmemUninitRead, site, nullptr, alloc_name,
                   byte_offset, warp_, -1);
        } else if (e.writer_warp != warp_ && e.write_epoch == epoch_) {
            record(HazardKind::kSmemRaw, site, &e.write_site, alloc_name,
                   byte_offset, warp_, e.writer_warp);
        }
        if (e.read_epoch != epoch_)
            e.reader_warps = 0;
        e.read_epoch = epoch_;
        e.reader_warps |= self_bit;
        e.read_site = site;
    }
}

void HazardChecker::record_barrier_divergence(
    int finished_warp, int waiting_warp, const std::source_location& wait_site)
{
    record(HazardKind::kBarrierDivergence, wait_site, nullptr, {}, -1,
           waiting_warp, finished_warp);
}

void HazardChecker::record_shuffle_source(int dest_lane, int src_lane,
                                          const std::source_location& site)
{
    (void)dest_lane; // per-lane occurrences aggregate by count
    record(HazardKind::kShuffleInactiveSource, site, nullptr, {}, src_lane,
           warp_, -1);
}

void HazardChecker::record_vote_predicate(LaneMask pred, LaneMask active,
                                          const std::source_location& site)
{
    record(HazardKind::kVoteInactivePredicate, site, nullptr, {},
           static_cast<std::int64_t>(pred & ~active), warp_, -1);
}

void HazardChecker::merge(const HazardChecker& o)
{
    for (const auto& [key, oa] : o.findings_) {
        Accum& a = findings_[key];
        const bool fresh = a.count == 0;
        a.count += oa.count;
        const auto cand =
            std::tuple(oa.first_block, oa.detail, oa.warp, oa.other_warp);
        if (fresh ||
            cand < std::tuple(a.first_block, a.detail, a.warp, a.other_warp)) {
            a.first_block = oa.first_block;
            a.detail = oa.detail;
            a.warp = oa.warp;
            a.other_warp = oa.other_warp;
        }
    }
}

HazardReport HazardChecker::build_report() const
{
    HazardReport r;
    r.hazards.reserve(findings_.size());
    for (const auto& [key, a] : findings_) { // map order = deterministic
        Hazard h;
        h.kind = key.kind;
        h.site = key.site;
        h.other_site = key.other_site;
        h.note = key.note;
        h.count = a.count;
        h.first_block = a.first_block;
        h.detail = a.detail;
        h.warp = a.warp;
        h.other_warp = a.other_warp;
        r.hazards.push_back(std::move(h));
    }
    return r;
}

std::uint64_t total_hazards(std::span<const LaunchStats> ls)
{
    std::uint64_t n = 0;
    for (const LaunchStats& l : ls)
        if (l.hazards)
            n += l.hazards->total();
    return n;
}

void write_hazard_json(std::ostream& os, std::span<const LaunchStats> ls)
{
    JsonWriter j(os);
    j.begin_object();
    j.key("schema"), j.value("satgpu-hazard-v1");
    j.key("launches");
    j.begin_array();
    for (const LaunchStats& l : ls) {
        j.begin_object();
        j.key("kernel"), j.value(l.info.name);
        j.key("checked"), j.value(l.hazards != nullptr);
        if (l.hazards) {
            j.key("hazard_count"), j.value(l.hazards->total());
            j.key("hazards");
            j.begin_array();
            for (const Hazard& h : l.hazards->hazards) {
                j.begin_object();
                j.key("kind"), j.value(to_string(h.kind));
                j.key("site"), j.value(h.site);
                if (!h.other_site.empty())
                    j.key("other_site"), j.value(h.other_site);
                if (!h.note.empty())
                    j.key("allocation"), j.value(h.note);
                j.key("count"), j.value(h.count);
                j.key("first_block"), j.value(h.first_block);
                j.key("detail"), j.value(h.detail);
                j.key("warp"), j.value(h.warp);
                j.key("other_warp"), j.value(h.other_warp);
                j.end_object();
            }
            j.end_array();
        }
        j.end_object();
    }
    j.end_array();
    j.end_object();
    os << '\n';
}

} // namespace satgpu::simt
