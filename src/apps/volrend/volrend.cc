#include "apps/volrend/volrend.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/log.h"

namespace splash::apps::volrend {

Volrend::Volrend(rt::Env& env, const Config& cfg)
    : env_(env), cfg_(cfg), n_(cfg.size)
{
    if (!isPow2(n_) || n_ < 8)
        fatal("Volrend: size must be a power of two >= 8");
    std::size_t nvox = std::size_t(n_) * n_ * n_;
    vol_ = rt::SharedArray<double>(env, nvox);
    opac_ = rt::SharedArray<double>(env, nvox);

    // Max-opacity pyramid: level 1 has (n/2)^3 nodes, etc.
    pyrLevels_ = log2i(n_);
    pyrOffset_.assign(pyrLevels_ + 1, 0);
    long total = 0;
    for (int l = 1; l <= pyrLevels_; ++l) {
        pyrOffset_[l] = total;
        long m = n_ >> l;
        total += m * m * m;
    }
    pyramid_ = rt::SharedArray<double>(env, std::max<long>(total, 1));

    img_ = rt::SharedArray<double>(env,
                                   std::size_t(cfg_.width) * cfg_.width);
    tq_ = std::make_unique<rt::TaskQueues>(env, env.nprocs());
    bar_ = std::make_unique<rt::Barrier>(env);
    statLock_ = std::make_unique<rt::Lock>(env);

    buildVolume();
}

void
Volrend::buildVolume()
{
    // Procedural phantom, centered, in voxel coordinates.
    double cc = n_ / 2.0;
    for (int z = 0; z < n_; ++z) {
        for (int y = 0; y < n_; ++y) {
            for (int x = 0; x < n_; ++x) {
                double v = 0.0;
                if (cfg_.phantom == 1) {
                    double r = std::sqrt((x - cc) * (x - cc) +
                                         (y - cc) * (y - cc) +
                                         (z - cc) * (z - cc));
                    v = r < n_ * 0.25 ? 200.0 : 0.0;
                } else {
                    // Head: ellipsoidal skin, skull shell, brain.
                    double ex = (x - cc) / (0.42 * n_);
                    double ey = (y - cc) / (0.5 * n_);
                    double ez = (z - cc) / (0.38 * n_);
                    double r = std::sqrt(ex * ex + ey * ey + ez * ez);
                    if (r < 0.70)
                        v = 80.0;   // brain
                    if (r >= 0.70 && r < 0.82)
                        v = 220.0;  // skull
                    if (r >= 0.82 && r < 0.95)
                        v = 40.0;   // skin/soft tissue
                }
                vol_.raw()[(std::size_t(z) * n_ + y) * n_ + x] = v;
            }
        }
    }
}

double
Volrend::density(int x, int y, int z) const
{
    if (x < 0 || y < 0 || z < 0 || x >= n_ || y >= n_ || z >= n_)
        return 0.0;
    return vol_.raw()[(std::size_t(z) * n_ + y) * n_ + x];
}

void
Volrend::computeOpacity(rt::ProcCtx& c)
{
    // Piecewise-linear transfer function: transparent below 30,
    // soft ramp to dense bone.
    std::size_t nvox = std::size_t(n_) * n_ * n_;
    std::size_t per = (nvox + c.nprocs() - 1) / c.nprocs();
    std::size_t first = per * c.id();
    std::size_t last = std::min(nvox, first + per);
    for (std::size_t i = first; i < last; ++i) {
        double d = vol_.ld(i);
        double a = 0.0;
        if (d > 30.0)
            a = std::min(1.0, (d - 30.0) / 220.0) * 0.6;
        opac_.st(i, a);
        c.flops(3);
    }
    bar_->arrive(c);
}

void
Volrend::buildPyramid(rt::ProcCtx& c)
{
    // Level 1 from voxels, each higher level from the previous.
    for (int l = 1; l <= pyrLevels_; ++l) {
        long m = n_ >> l;
        long nodes = m * m * m;
        long per = (nodes + c.nprocs() - 1) / c.nprocs();
        long first = per * c.id();
        long last = std::min(nodes, first + per);
        for (long k = first; k < last; ++k) {
            long x = k % m, y = (k / m) % m, z = k / (m * m);
            double mx = 0.0;
            if (l == 1) {
                // One-voxel dilation: a sample anywhere inside a
                // "transparent" node then interpolates only
                // transparent voxels, so leaping is exact.
                for (long cz = 2 * z - 1; cz <= 2 * z + 2; ++cz) {
                    for (long cy = 2 * y - 1; cy <= 2 * y + 2; ++cy) {
                        for (long cx = 2 * x - 1; cx <= 2 * x + 2;
                             ++cx) {
                            if (cx < 0 || cy < 0 || cz < 0 ||
                                cx >= n_ || cy >= n_ || cz >= n_)
                                continue;
                            mx = std::max(
                                mx, opac_.ld((std::size_t(cz) * n_ +
                                              cy) *
                                                 n_ +
                                             cx));
                        }
                    }
                }
                c.work(64);
            } else {
                for (int dz = 0; dz < 2; ++dz) {
                    for (int dy = 0; dy < 2; ++dy) {
                        for (int dx = 0; dx < 2; ++dx) {
                            long cx = 2 * x + dx, cy = 2 * y + dy,
                                 cz = 2 * z + dz;
                            long pm = n_ >> (l - 1);
                            mx = std::max(
                                mx,
                                pyramid_.ld(pyrOffset_[l - 1] +
                                            (cz * pm + cy) * pm + cx));
                        }
                    }
                }
                c.work(8);
            }
            pyramid_.st(pyrOffset_[l] + k, mx);
        }
        bar_->arrive(c);
    }
}

double
Volrend::sampleOpacity(rt::ProcCtx& c, double x, double y, double z)
{
    int x0 = static_cast<int>(std::floor(x));
    int y0 = static_cast<int>(std::floor(y));
    int z0 = static_cast<int>(std::floor(z));
    double fx = x - x0, fy = y - y0, fz = z - z0;
    double acc = 0.0;
    for (int dz = 0; dz < 2; ++dz) {
        for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
                int xi = x0 + dx, yi = y0 + dy, zi = z0 + dz;
                if (xi < 0 || yi < 0 || zi < 0 || xi >= n_ ||
                    yi >= n_ || zi >= n_)
                    continue;
                double w = (dx ? fx : 1 - fx) * (dy ? fy : 1 - fy) *
                           (dz ? fz : 1 - fz);
                acc += w *
                       opac_.ld((std::size_t(zi) * n_ + yi) * n_ + xi);
            }
        }
    }
    c.flops(24);
    return acc;
}

double
Volrend::shade(rt::ProcCtx& c, double x, double y, double z)
{
    // Central-difference gradient of density, headlight shading.
    int xi = std::clamp(static_cast<int>(x), 1, n_ - 2);
    int yi = std::clamp(static_cast<int>(y), 1, n_ - 2);
    int zi = std::clamp(static_cast<int>(z), 1, n_ - 2);
    auto d = [&](int a, int b, int e) {
        rt::touchRead(&vol_.raw()[(std::size_t(e) * n_ + b) * n_ + a],
                      8);
        return density(a, b, e);
    };
    double gx = d(xi + 1, yi, zi) - d(xi - 1, yi, zi);
    double gy = d(xi, yi + 1, zi) - d(xi, yi - 1, zi);
    double gz = d(xi, yi, zi + 1) - d(xi, yi, zi - 1);
    double gm = std::sqrt(gx * gx + gy * gy + gz * gz);
    c.flops(10);
    return 0.3 + 0.7 * std::min(1.0, gm / 200.0);
}

double
Volrend::castRay(rt::ProcCtx& c, double ox, double oy, double oz,
                 double dx, double dy, double dz,
                 std::uint64_t& samples)
{
    double color = 0.0, alpha = 0.0;
    double tmax = 3.0 * n_;
    double t = 0.0;
    while (t < tmax && alpha < cfg_.cutoff) {
        double x = ox + dx * t, y = oy + dy * t, z = oz + dz * t;
        if (x < -1 || y < -1 || z < -1 || x > n_ || y > n_ || z > n_) {
            t += cfg_.step;
            continue;
        }
        // Octree space leaping: find the deepest fully-transparent
        // pyramid node containing this sample and jump past it.
        if (cfg_.useOctree) {
            int xi = std::clamp(static_cast<int>(x), 0, n_ - 1);
            int yi = std::clamp(static_cast<int>(y), 0, n_ - 1);
            int zi = std::clamp(static_cast<int>(z), 0, n_ - 1);
            int skip_level = 0;
            for (int l = pyrLevels_; l >= 1; --l) {
                long m = n_ >> l;
                long node = ((long(zi) >> l) * m + (long(yi) >> l)) * m +
                            (long(xi) >> l);
                if (pyramid_.ld(pyrOffset_[l] + node) <= 0.0) {
                    skip_level = l;
                    break;
                }
            }
            c.work(pyrLevels_);
            if (skip_level > 0) {
                // Advance to the exit of the transparent block: the
                // earliest crossing of any of its three far faces.
                int bs = 1 << skip_level;
                double texit = 1e30;
                for (int d2 = 0; d2 < 3; ++d2) {
                    double dir = d2 == 0 ? dx : (d2 == 1 ? dy : dz);
                    double pos = d2 == 0 ? x : (d2 == 1 ? y : z);
                    if (std::abs(dir) < 1e-12)
                        continue;
                    double lo = std::floor(pos / bs) * bs;
                    double edge = dir > 0 ? lo + bs : lo;
                    texit = std::min(texit, t + (edge - pos) / dir);
                }
                // Land on the global sampling lattice (multiples of
                // step) so leaping never changes which samples are
                // taken -- only skips provably transparent ones.
                double tn = cfg_.step *
                            std::ceil((texit + 1e-9) / cfg_.step);
                t = std::max(tn, t + cfg_.step);
                continue;
            }
        }
        ++samples;
        double a = sampleOpacity(c, x, y, z) *
                   std::min(1.0, cfg_.step);
        if (a > 1e-4) {
            double s = shade(c, x, y, z);
            color += (1.0 - alpha) * a * s;
            alpha += (1.0 - alpha) * a;
            c.flops(6);
        }
        t += cfg_.step;
    }
    return color;
}

void
Volrend::renderTile(rt::ProcCtx& c, int tileIdx, int frame)
{
    (void)frame;
    int tilesX = (cfg_.width + cfg_.tile - 1) / cfg_.tile;
    int tx = (tileIdx % tilesX) * cfg_.tile;
    int ty = (tileIdx / tilesX) * cfg_.tile;
    std::uint64_t samples = 0;
    double cc = n_ / 2.0;
    double scale = double(n_) * 1.4 / cfg_.width;
    // Parallel projection: rays along the rotated z axis.
    double dx = -viewSin_, dy = 0.0, dz = viewCos_;
    for (int py = ty; py < std::min(ty + cfg_.tile, cfg_.width); ++py) {
        for (int px = tx; px < std::min(tx + cfg_.tile, cfg_.width);
             ++px) {
            double u = (px - cfg_.width / 2.0) * scale;
            double v = (py - cfg_.width / 2.0) * scale;
            // Image plane through the volume center, rotated about y:
            // right = (cos, 0, sin), dir = (-sin, 0, cos); start 1.5
            // volume-lengths before the center.
            double ox = cc + u * viewCos_ - dx * 1.5 * n_;
            double oy = cc + v;
            double oz = cc + u * viewSin_ - dz * 1.5 * n_;
            double val =
                castRay(c, ox, oy, oz, dx, dy, dz, samples);
            img_[std::size_t(py) * cfg_.width + px] =
                std::min(1.0, val);
        }
    }
    rt::Lock::Guard g(*statLock_, c);
    samples_ += samples;
}

void
Volrend::body(rt::ProcCtx& c)
{
    computeOpacity(c);
    buildPyramid(c);
    int tilesX = (cfg_.width + cfg_.tile - 1) / cfg_.tile;
    int ntiles = tilesX * tilesX;
    for (int f = 0; f < cfg_.frames; ++f) {
        if (f == cfg_.warmupFrames && f > 0) {
            bar_->arrive(c);
            if (c.id() == 0)
                env_.startMeasurement();
            bar_->arrive(c);
        }
        if (c.id() == 0) {
            double ang = 0.3 * f;
            viewCos_ = std::cos(ang);
            viewSin_ = std::sin(ang);
        }
        bar_->arrive(c);
        for (int t = c.id(); t < ntiles; t += c.nprocs())
            tq_->push(c, c.id(), static_cast<std::uint64_t>(t));
        bar_->arrive(c);
        std::uint64_t task;
        while (tq_->get(c, c.id(), task)) {
            renderTile(c, static_cast<int>(task), f);
            tq_->done(c);
        }
        bar_->arrive(c);
    }
}

Result
Volrend::run()
{
    samples_ = 0;
    env_.run([this](rt::ProcCtx& c) { body(c); });
    Result r;
    r.samples = samples_;
    double sum = 0;
    for (std::size_t i = 0;
         i < std::size_t(cfg_.width) * cfg_.width; ++i)
        sum += img_.raw()[i] * ((i % 13) + 1);
    r.checksum = sum;
    r.valid = std::isfinite(sum);
    return r;
}

std::vector<double>
Volrend::image() const
{
    return std::vector<double>(img_.raw(),
                               img_.raw() +
                                   std::size_t(cfg_.width) * cfg_.width);
}

void
Volrend::writePpm(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open " + path);
    std::fprintf(f, "P6\n%d %d\n255\n", cfg_.width, cfg_.width);
    for (std::size_t i = 0;
         i < std::size_t(cfg_.width) * cfg_.width; ++i) {
        auto b = static_cast<unsigned char>(
            std::min(255.0, img_.raw()[i] * 255.0));
        std::fputc(b, f);
        std::fputc(b, f);
        std::fputc(b, f);
    }
    std::fclose(f);
}

} // namespace splash::apps::volrend
