#include "util/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace spec17 {

bool
writeFileAtomic(const std::string &path, const std::string &contents,
                std::string &error)
{
    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            error = "cannot write " + temp;
            return false;
        }
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        if (!out) {
            error = "short write to " + temp;
            std::remove(temp.c_str());
            return false;
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        error = "cannot rename " + temp + " to " + path + ": "
            + std::strerror(errno);
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

} // namespace spec17
