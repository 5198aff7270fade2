/**
 * @file
 * Small fixed-width table formatter for the characterization benches,
 * so every bench prints rows shaped like the paper's tables/figures.
 */
#ifndef SPLASH2_HARNESS_REPORT_H
#define SPLASH2_HARNESS_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/log.h"

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

/** Parse `--key value` style options; keys not given keep defaults.
 *  Every lookup marks its key as read, so once a binary has read all
 *  its flags, allRead() can reject the ones it does not know. */
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
            // `--key value` pair, or a bare boolean flag (`--quick`,
            // `--csv`) when no value follows.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                kv_[k.substr(2)] = argv[i + 1];
                i += 2;
            } else {
                kv_[k.substr(2)] = "1";
                ++i;
            }
        }
    }

    double
    getD(const std::string& k, double def) const
    {
        auto it = find(k);
        if (it == kv_.end())
            return def;
        // Reject partial parses ("1.5x") and non-numbers outright
        // rather than silently truncating or throwing out of main().
        try {
            std::size_t pos = 0;
            double v = std::stod(it->second, &pos);
            if (pos == it->second.size())
                return v;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects a number, got '" +
              it->second + "'");
    }

    long
    getI(const std::string& k, long def) const
    {
        auto it = find(k);
        if (it == kv_.end())
            return def;
        try {
            std::size_t pos = 0;
            long v = std::stol(it->second, &pos);
            if (pos == it->second.size())
                return v;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects an integer, got '" +
              it->second + "'");
    }

    std::string
    getS(const std::string& k, const std::string& def) const
    {
        auto it = find(k);
        return it == kv_.end() ? def : it->second;
    }

    bool has(const std::string& k) const { return find(k) != kv_.end(); }

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
    std::map<std::string, std::string>::const_iterator
    find(const std::string& k) const
    {
        auto it = kv_.find(k);
        if (it != kv_.end())
            read_.insert(k);
        return it;
    }

    std::map<std::string, std::string> kv_;
    std::vector<std::string> stray_;
    /** Keys given on the command line that some lookup asked for. */
    mutable std::set<std::string> read_;
};

} // namespace splash::harness

#endif // SPLASH2_HARNESS_REPORT_H
