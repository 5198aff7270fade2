/**
 * @file
 * The report layer of the characterization benches: a fixed-width
 * table formatter, so every bench prints rows shaped like the paper's
 * tables/figures, the command-line Options, and the file --csv names,
 * which gets the same results as CSV rows beside the text report.
 */
#ifndef SPLASH2_HARNESS_REPORT_H
#define SPLASH2_HARNESS_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/log.h"
#include "sim/stats.h"

namespace splash::harness {

class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    Table&
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
        return *this;
    }

    void
    print() const
    {
        std::vector<std::size_t> w(headers_.size());
        for (std::size_t i = 0; i < headers_.size(); ++i)
            w[i] = headers_[i].size();
        for (const auto& r : rows_)
            for (std::size_t i = 0; i < r.size() && i < w.size(); ++i)
                w[i] = std::max(w[i], r[i].size());
        auto line = [&](const std::vector<std::string>& cells) {
            for (std::size_t i = 0; i < w.size(); ++i) {
                std::string c = i < cells.size() ? cells[i] : "";
                std::printf("%c %-*s", i ? '|' : ' ',
                            static_cast<int>(w[i]), c.c_str());
            }
            std::printf("\n");
        };
        line(headers_);
        for (std::size_t i = 0; i < w.size(); ++i)
            std::printf("%c-%s", i ? '+' : '-',
                        std::string(w[i] + 1, '-').c_str());
        std::printf("\n");
        for (const auto& r : rows_)
            line(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(const char* f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

inline std::string
fmtU(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** @p lead followed by each of @p values formatted with @p f: one
 *  row's values rendered for the text table or for the CSV. */
inline std::vector<std::string>
cells(std::vector<std::string> lead, const std::vector<double>& values,
      const char* f)
{
    for (double v : values)
        lead.push_back(fmt(f, v));
    return lead;
}

/** The header of a Figures 4-6 traffic table whose rows start with
 *  @p lead; kTrafficCsv names the same eight columns in a CSV. */
inline std::vector<std::string>
trafficHeader(std::string lead)
{
    return {std::move(lead), "RemShared", "RemCold",    "RemCap", "RemWB",
            "RemOvhd",       "Local",     "TrueShared", "Total"};
}
inline const std::string kTrafficCsv =
    "rem_shared,rem_cold,rem_cap,rem_wb,rem_ovhd,local,true_shared,total";

/** @p v per 1000 references of @p m; 0 when @p m saw none. */
inline double
per1000(const sim::MemStats& m, double v)
{
    return m.accesses() > 0 ? 1000.0 * v / double(m.accesses()) : 0.0;
}

/** @p v per reference of @p m; 0 when @p m saw none. */
inline double
perRef(const sim::MemStats& m, double v)
{
    return m.accesses() > 0 ? v / double(m.accesses()) : 0.0;
}

/** The traffic columns of @p m in bytes per @p den: remote shared,
 *  cold, capacity and writeback data, remote overhead, local data,
 *  true-shared data and the total. */
inline std::vector<double>
trafficColumns(const sim::MemStats& m, double den)
{
    return {double(m.remoteSharedData) / den,
            double(m.remoteColdData) / den,
            double(m.remoteCapacityData) / den,
            double(m.remoteWriteback) / den,
            double(m.remoteOverhead) / den,
            double(m.localData) / den,
            double(m.trueSharedData) / den,
            double(m.totalTraffic()) / den};
}

/** Parse `--key value` style options; keys not given keep defaults.
 *  A switch (`--quick`, `--nohints`, `--nomem`) is read with flag(),
 *  which is fatal when a value follows it; asking a valued flag given
 *  with no value for its value is fatal too.  has() answers for any
 *  flag given.  Every lookup marks its key as read, so once a binary
 *  has read all its flags, allRead() can reject the ones it does not
 *  know. */
class Options
{
  public:
    Options(int argc, char** argv)
    {
        int i = 1;
        while (i < argc) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0) {
                stray_.push_back(k);
                ++i;
                continue;
            }
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                kv_[k.substr(2)] = argv[i + 1];
                i += 2;
            } else {
                kv_[k.substr(2)] = std::nullopt;
                ++i;
            }
        }
    }

    double
    getD(const std::string& k, double def) const
    {
        auto it = find(k, true);
        if (it == kv_.end())
            return def;
        // Reject partial parses ("1.5x") and non-numbers outright
        // rather than silently truncating or throwing out of main().
        try {
            std::size_t pos = 0;
            double v = std::stod(*it->second, &pos);
            if (pos == it->second->size())
                return v;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects a number, got '" +
              *it->second + "'");
    }

    long
    getI(const std::string& k, long def) const
    {
        auto it = find(k, true);
        if (it == kv_.end())
            return def;
        try {
            std::size_t pos = 0;
            long v = std::stol(*it->second, &pos);
            if (pos == it->second->size())
                return v;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects an integer, got '" +
              *it->second + "'");
    }

    std::string
    getS(const std::string& k, const std::string& def) const
    {
        auto it = find(k, true);
        return it == kv_.end() ? def : *it->second;
    }

    bool has(const std::string& k) const { return find(k) != kv_.end(); }

    /** True when switch @p k is given; fatal when a value follows it
     *  (`--nomem 0` would otherwise mean --nomem). */
    bool
    flag(const std::string& k) const
    {
        auto it = find(k);
        if (it != kv_.end() && it->second)
            fatal("option --" + k + " takes no value");
        return it != kv_.end();
    }

    /** True when every flag given has been read.  Otherwise prints
     *  "unknown flag --X" for each flag nothing read (and
     *  "unexpected argument" for each word that is not a flag) and
     *  returns false.  Call once, after the binary's last lookup. */
    bool
    allRead() const
    {
        for (const auto& [k, v] : kv_)
            if (!read_.count(k))
                std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
        for (const std::string& w : stray_)
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         w.c_str());
        return read_.size() == kv_.size() && stray_.empty();
    }

  private:
    /** @p k's entry, marked read; fatal for a switch if @p value. */
    std::map<std::string, std::optional<std::string>>::const_iterator
    find(const std::string& k, bool value = false) const
    {
        auto it = kv_.find(k);
        if (it != kv_.end())
            read_.insert(k);
        if (value && it != kv_.end() && !it->second)
            fatal("option --" + k + " expects a value");
        return it;
    }

    std::map<std::string, std::optional<std::string>> kv_;
    std::vector<std::string> stray_;
    /** Keys given on the command line that some lookup asked for. */
    mutable std::set<std::string> read_;
};

/** The file `--csv FILE` names.  A binary that exports CSV prints its
 *  text report to stdout whatever --csv says, and renders the same
 *  results, from the same run, as rows of FILE; without --csv, row()
 *  writes nothing. */
class CsvFile
{
  public:
    /** Reads --csv, so Options::allRead() accepts it. */
    explicit CsvFile(const Options& opt)
        : given_(opt.has("csv")), path_(opt.getS("csv", ""))
    {}

    /** True when --csv was given. */
    explicit operator bool() const { return given_; }

    /** Create FILE with @p header as its first line; fatal when FILE
     *  cannot be written.  Call after Options::allRead() and before
     *  any program runs, so that a bad command line truncates nothing
     *  and an unwritable path costs no run. */
    void
    open(const std::string& header)
    {
        if (!given_)
            return;
        f_.reset(std::fopen(path_.c_str(), "w"));
        if (!f_)
            fatal("cannot write --csv file '" + path_ + "'");
        // Line buffered: each row reaches the file as it is written,
        // so row() sees a failed write, and closing has nothing to lose.
        std::setvbuf(f_.get(), nullptr, _IOLBF, BUFSIZ);
        row({header});
    }

    /** Append @p fields, joined by commas, as one row; fatal when the
     *  write fails. */
    void
    row(const std::vector<std::string>& fields)
    {
        if (!f_)
            return;
        std::string line;
        for (std::size_t i = 0; i < fields.size(); ++i)
            line += (i ? "," : "") + fields[i];
        if (std::fprintf(f_.get(), "%s\n", line.c_str()) < 0)
            fatal("cannot write --csv file '" + path_ + "'");
    }

  private:
    struct Close
    {
        void operator()(std::FILE* f) const { std::fclose(f); }
    };
    bool given_;
    std::string path_;
    std::unique_ptr<std::FILE, Close> f_;
};

} // namespace splash::harness

#endif // SPLASH2_HARNESS_REPORT_H
